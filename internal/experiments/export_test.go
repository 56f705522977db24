package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

func sampleRows() []Row {
	return []Row{
		{
			Set: "BW1", Pattern: "skewed2", Arch: "firefly", AtLoad: 1,
			PeakBandwidthGbps: 558.5, PerCoreGbps: 8.73, EnergyPerMessagePJ: 21009.6,
			OfferedGbps: 912.5, PacketsDelivered: 2726, PacketsDropped: 0,
			Retransmissions: 0, AvgLatencyCycles: 2215.4,
		},
		{
			Set: "BW1", Pattern: "skewed2", Arch: "d-hetpnoc", AtLoad: 1,
			PeakBandwidthGbps: 789.5, PerCoreGbps: 12.34, EnergyPerMessagePJ: 12200.7,
			OfferedGbps: 912.5, PacketsDelivered: 3854, PacketsDropped: 3,
			Retransmissions: 3, AvgLatencyCycles: 891.7,
		},
	}
}

// TestCSVRoundTrip reads WriteRowsCSV's output back with encoding/csv:
// one header plus one record per row, and every field parses back to the
// value that was written.
func TestCSVRoundTrip(t *testing.T) {
	rows := sampleRows()
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(rows)+1 {
		t.Fatalf("got %d records, want a header plus %d rows", len(records), len(rows))
	}
	if records[0][0] != "set" || records[0][11] != "avgLatencyCycles" || len(records[0]) != 12 {
		t.Fatalf("unexpected header %q", records[0])
	}
	for i, want := range rows {
		rec := records[i+1]
		if rec[0] != want.Set || rec[1] != want.Pattern || rec[2] != want.Arch {
			t.Errorf("row %d identity columns = %q", i, rec[:3])
		}
		numeric := map[int]float64{
			3: want.AtLoad, 4: float64(want.PeakBandwidthGbps), 5: float64(want.PerCoreGbps),
			6: float64(want.EnergyPerMessagePJ), 7: float64(want.OfferedGbps),
			8: float64(want.PacketsDelivered), 9: float64(want.PacketsDropped),
			10: float64(want.Retransmissions), 11: want.AvgLatencyCycles,
		}
		for col, v := range numeric {
			if got, err := strconv.ParseFloat(rec[col], 64); err != nil || got != v {
				t.Errorf("row %d column %d = %q, want %g", i, col, rec[col], v)
			}
		}
	}
}
