package tensor

import (
	"testing"

	"mlperf/internal/parallel"
)

func TestCalibrateMeasuresAndDerives(t *testing.T) {
	c := Calibrate()
	if c.SIMD != ActiveSIMD().String() {
		t.Errorf("Calibration.SIMD = %q, want %q", c.SIMD, ActiveSIMD().String())
	}
	if c.Workers != parallel.Default().Workers() {
		t.Errorf("Calibration.Workers = %d, want %d", c.Workers, parallel.Default().Workers())
	}
	if c.MACRate <= 0 {
		t.Errorf("Calibration.MACRate = %v, want > 0", c.MACRate)
	}
	if c.FlopThreshold < calMinFlopThreshold || c.FlopThreshold > calMaxFlopThreshold {
		t.Errorf("FlopThreshold %d outside [%d, %d]", c.FlopThreshold, calMinFlopThreshold, calMaxFlopThreshold)
	}
	if c.PanelBytes < calMinPanelBytes || c.PanelBytes > calMaxPanelBytes {
		t.Errorf("PanelBytes %d outside [%d, %d]", c.PanelBytes, calMinPanelBytes, calMaxPanelBytes)
	}
	if c.Workers <= 1 {
		if c.ForkOverhead != 0 {
			t.Errorf("single worker: ForkOverhead = %v, want 0", c.ForkOverhead)
		}
		if c.FlopThreshold != calMaxFlopThreshold {
			t.Errorf("single worker: FlopThreshold = %d, want ceiling %d", c.FlopThreshold, calMaxFlopThreshold)
		}
	} else if c.ForkOverhead <= 0 {
		t.Errorf("multi worker: ForkOverhead = %v, want > 0", c.ForkOverhead)
	}
}

func TestCalibrationPanelFromL2Fixture(t *testing.T) {
	dir := writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "1024K"},
	})
	prevDir := calibrationL2Dir
	calibrationL2Dir = dir
	defer func() { calibrationL2Dir = prevDir }()

	c := Calibrate()
	if c.L2Bytes != 1024<<10 {
		t.Errorf("L2Bytes = %d, want %d", c.L2Bytes, 1024<<10)
	}
	if want := (1024 << 10) * 3 / 4; c.PanelBytes != want {
		t.Errorf("PanelBytes = %d, want 3/4 of L2 = %d", c.PanelBytes, want)
	}

	// Probe failure falls back to the shipped default.
	calibrationL2Dir = t.TempDir()
	if c := Calibrate(); c.PanelBytes != defaultGEMMPanelBytes {
		t.Errorf("no L2: PanelBytes = %d, want default %d", c.PanelBytes, defaultGEMMPanelBytes)
	}

	// Clamps on pathological topologies.
	calibrationL2Dir = writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "16K"},
	})
	if c := Calibrate(); c.PanelBytes != calMinPanelBytes {
		t.Errorf("tiny L2: PanelBytes = %d, want floor %d", c.PanelBytes, calMinPanelBytes)
	}
	calibrationL2Dir = writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "64M"},
	})
	if c := Calibrate(); c.PanelBytes != calMaxPanelBytes {
		t.Errorf("huge L2: PanelBytes = %d, want ceiling %d", c.PanelBytes, calMaxPanelBytes)
	}
}

func TestCalibrationApplyInstallsKnobs(t *testing.T) {
	defer func() {
		SetParallelFlopThreshold(0)
		SetGEMMPanelBytes(0)
		calibratedV.Store(false)
	}()
	calibratedV.Store(false)
	if CurrentKernelConfig().Calibrated {
		t.Fatal("Calibrated true before Apply")
	}
	c := Calibrate()
	c.Apply()
	cfg := CurrentKernelConfig()
	if !cfg.Calibrated {
		t.Error("Calibrated false after Apply")
	}
	if cfg.FlopThreshold != c.FlopThreshold || cfg.PanelBytes != c.PanelBytes {
		t.Errorf("applied knobs = (%d, %d), want (%d, %d)",
			cfg.FlopThreshold, cfg.PanelBytes, c.FlopThreshold, c.PanelBytes)
	}
	// Calibration is pure scheduling: results across applied/default knobs
	// stay bit-identical (the knob tests pin this in depth; spot-check here).
	a := seededTensor(7, 40, 30)
	b := seededTensor(8, 30, 50)
	calibrated, _ := matMul(a, b)
	SetParallelFlopThreshold(0)
	SetGEMMPanelBytes(0)
	defaulted, _ := matMul(a, b)
	requireBitEqual(t, "MatMul calibrated vs default knobs", calibrated, defaulted)
}
