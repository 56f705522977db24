package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteRowsCSV serializes matrix rows as CSV with a header, for plotting
// the figures with external tools.
func WriteRowsCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	header := []string{
		"set", "pattern", "arch", "atLoad",
		"peakBandwidthGbps", "perCoreGbps", "energyPerMessagePJ", "offeredGbps",
		"packetsDelivered", "packetsDropped", "retransmissions", "avgLatencyCycles",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		record := []string{
			r.Set, r.Pattern, r.Arch,
			formatFloat(r.AtLoad),
			formatFloat(float64(r.PeakBandwidthGbps)),
			formatFloat(float64(r.PerCoreGbps)),
			formatFloat(float64(r.EnergyPerMessagePJ)),
			formatFloat(float64(r.OfferedGbps)),
			strconv.FormatInt(r.PacketsDelivered, 10),
			strconv.FormatInt(r.PacketsDropped, 10),
			strconv.FormatInt(r.Retransmissions, 10),
			formatFloat(r.AvgLatencyCycles),
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
