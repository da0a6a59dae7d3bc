package tensor

import (
	"os"
	"strconv"
	"sync/atomic"
)

// Runtime tuning knobs for the compute engine. Both defaults were calibrated
// on a 1-core container (see ROADMAP); on wider machines the right values
// differ, so they are overridable — per process via the environment at start,
// or programmatically (backend.NativeConfig forwards its tuning fields here).
// Changing a knob never changes results: the kernels' accumulation-order
// contract holds for every threshold and panel size, so tuning is purely a
// scheduling decision. The knobs are stored atomically because kernels read
// them concurrently from the worker pool.
const (
	// defaultParallelFlopThreshold is the approximate multiply-accumulate
	// count below which forking to the worker pool costs more than it saves
	// and kernels stay on the calling goroutine. Roughly half a millisecond
	// of serial work — far above the fork overhead, and high enough that the
	// miniature reference models run a batch of one entirely inline,
	// keeping their steady-state path allocation-free (the parallel fork
	// allocates a small closure) and leaving cross-sample parallelism to the
	// backend's batch path.
	defaultParallelFlopThreshold = 1 << 20

	// defaultGEMMPanelBytes is the cache budget for one column panel of a
	// GEMM right-hand side (k × panel float32s), sized to a common L2
	// allocation. It also fixes the batched convolution's sample-panel split:
	// as many whole samples as keep one packed im2col panel inside the
	// budget.
	defaultGEMMPanelBytes = 192 << 10
)

// Environment overrides, read once at process start.
const (
	envFlopThreshold = "MLPERF_PARALLEL_FLOP_THRESHOLD"
	envPanelBytes    = "MLPERF_GEMM_PANEL_BYTES"
)

var (
	flopThresholdV atomic.Int64
	panelBytesV    atomic.Int64
)

func init() {
	flopThresholdV.Store(int64(envTuning(envFlopThreshold, defaultParallelFlopThreshold)))
	panelBytesV.Store(int64(envTuning(envPanelBytes, defaultGEMMPanelBytes)))
}

// envTuning parses a positive integer from the named environment variable,
// falling back to def when unset or malformed.
func envTuning(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// ParallelFlopThreshold returns the current parallel-dispatch threshold in
// multiply-accumulate operations.
func ParallelFlopThreshold() int { return int(flopThresholdV.Load()) }

// SetParallelFlopThreshold overrides the parallel-dispatch threshold; values
// <= 0 restore the built-in default. It returns the previous value so callers
// can scope an override.
func SetParallelFlopThreshold(v int) int {
	if v <= 0 {
		v = defaultParallelFlopThreshold
	}
	return int(flopThresholdV.Swap(int64(v)))
}

// GEMMPanelBytes returns the current GEMM column-panel cache budget in bytes.
func GEMMPanelBytes() int { return int(panelBytesV.Load()) }

// SetGEMMPanelBytes overrides the panel cache budget; values <= 0 restore the
// built-in default. It returns the previous value so callers can scope an
// override.
func SetGEMMPanelBytes(v int) int {
	if v <= 0 {
		v = defaultGEMMPanelBytes
	}
	return int(panelBytesV.Swap(int64(v)))
}
