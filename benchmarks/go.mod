// The benchmark is a module of its own so the root module's build and tests
// never depend on it. Its import path stays under mlperf/, which is what lets
// it reach mlperf/internal/... through the replace below.
module mlperf/benchmarks

go 1.24

require mlperf v0.0.0

replace mlperf => ../
