package experiments

import (
	"context"
	"testing"
)

// sensitivity prices the rows of SensitivityRuns, run at quickOpts, at
// scales.
func sensitivity(t *testing.T, scales []float64) ([]SensitivityRow, error) {
	t.Helper()
	rows, err := RunMatrix(context.Background(), quickOpts(), SensitivityRuns())
	if err != nil {
		t.Fatal(err)
	}
	return EnergySensitivity(rows[0], rows[1], scales)
}

// TestEPMConclusionRobustToCalibration: the Figure 3-4 sign — d-HetPNoC
// dissipates less per message under skewed traffic — must hold across a
// 16x range of the calibrated congestion-energy constant.
func TestEPMConclusionRobustToCalibration(t *testing.T) {
	rows, err := sensitivity(t, []float64{0.25, 1.0, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 parameters x 3 scales
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.DHetSavingPct <= 0 {
			t.Errorf("%s x%.2f: d-HetPNoC saving %.2f%% — conclusion flipped",
				r.Parameter, r.Scale, r.DHetSavingPct)
		}
	}
}

// TestSensitivitySavingGrowsWithCongestionWeight: scaling up the
// congestion term amplifies the saving (Firefly's queues are deeper), so
// the saving must be monotone in the buffer-residency scale.
func TestSensitivitySavingGrowsWithCongestionWeight(t *testing.T) {
	rows, err := sensitivity(t, []float64{0.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	var low, high float64
	for _, r := range rows {
		if r.Parameter != "buffer-residency" {
			continue
		}
		if r.Scale == 0.5 {
			low = r.DHetSavingPct
		}
		if r.Scale == 2.0 {
			high = r.DHetSavingPct
		}
	}
	if high <= low {
		t.Fatalf("saving not monotone in congestion weight: %.2f%% at 0.5x, %.2f%% at 2x", low, high)
	}
}

func TestSensitivityValidation(t *testing.T) {
	if _, err := EnergySensitivity(Row{}, Row{}, []float64{-1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}
