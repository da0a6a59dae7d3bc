package model

import (
	"os"
	"path/filepath"
	"testing"
)

// writeSysfsCache fabricates a /sys/devices/system/cpu/cpu0/cache layout.
func writeSysfsCache(t *testing.T, indexes []map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for i, attrs := range indexes {
		idx := filepath.Join(dir, "index"+string(rune('0'+i)))
		if err := os.Mkdir(idx, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, value := range attrs {
			if err := os.WriteFile(filepath.Join(idx, name), []byte(value+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

func TestDetectCacheBudget(t *testing.T) {
	// Env override beats the probe.
	t.Setenv(microBatchCacheBudgetEnv, "262144")
	dir := writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "2048K"},
	})
	if got := detectCacheBudget(dir); got != 262144 {
		t.Errorf("env override: budget = %d, want 262144", got)
	}

	// Probe: 3/4 of L2.
	t.Setenv(microBatchCacheBudgetEnv, "")
	if got, want := detectCacheBudget(dir), (2048<<10)*3/4; got != want {
		t.Errorf("probed budget = %d, want %d", got, want)
	}
	// A 512 KiB L2 reproduces the historical 384 KiB default exactly.
	half := writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "512K"},
	})
	if got := detectCacheBudget(half); got != defaultMicroBatchCacheBudget {
		t.Errorf("512K L2 budget = %d, want the historical %d", got, defaultMicroBatchCacheBudget)
	}

	// Clamps.
	tiny := writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "64K"},
	})
	if got := detectCacheBudget(tiny); got != minMicroBatchCacheBudget {
		t.Errorf("tiny L2 budget = %d, want floor %d", got, minMicroBatchCacheBudget)
	}
	huge := writeSysfsCache(t, []map[string]string{
		{"level": "2", "type": "Unified", "size": "1G"},
	})
	if got := detectCacheBudget(huge); got != maxMicroBatchCacheBudget {
		t.Errorf("huge L2 budget = %d, want ceiling %d", got, maxMicroBatchCacheBudget)
	}

	// No probe, no env: historical default.
	if got := detectCacheBudget(t.TempDir()); got != defaultMicroBatchCacheBudget {
		t.Errorf("fallback budget = %d, want %d", got, defaultMicroBatchCacheBudget)
	}

	// Garbage env falls through to the probe.
	t.Setenv(microBatchCacheBudgetEnv, "not-a-number")
	if got, want := detectCacheBudget(dir), (2048<<10)*3/4; got != want {
		t.Errorf("garbage env: budget = %d, want probed %d", got, want)
	}
}

// TestMicroBatchBudgetAffectsDerivation closes the loop: a larger budget must
// deepen a derived micro-batch — on an ALREADY-BUILT engine, because
// PreferredBatch derives from the live budget rather than freezing it at
// construction (so calibration reaches running replicas).
func TestMicroBatchBudgetAffectsDerivation(t *testing.T) {
	defer setMicroBatchCacheBudgetForTest(defaultMicroBatchCacheBudget)()
	m, err := New(ResNet50, Config{Classes: 10, ImageSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	narrow := m.(BatchSizer).PreferredBatch()

	SetMicroBatchCacheBudget(4 * defaultMicroBatchCacheBudget)
	if deep := m.(BatchSizer).PreferredBatch(); deep <= narrow {
		t.Errorf("4x budget micro-batch = %d, want deeper than %d", deep, narrow)
	}
}
