package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// allowedSurface is everything of mlperf/internal/... the benchmark names:
// package-level symbols as pkg.Name, methods and struct fields as
// pkg.Type.Member. The set may shrink; it must not grow: later refactors of
// the program (ROADMAP items 2, 3 and 5) are judged by this benchmark, so
// they must be able to land without editing it.
var allowedSurface = []string{
	"backend.NativeConfig", "backend.NativeConfig.Engine", "backend.NativeConfig.Store",
	"backend.NativeConfig.Workers", "backend.NewNative",
	"backend.Remote.Expired", "backend.Remote.Rejected", "backend.Remote.TransportDrops", "backend.Remote.Wait",
	"backend.RemoteConfig", "backend.RemoteConfig.Conns",
	"core.ImageClassificationHeavy", "core.ImageClassificationLight", "core.MachineTranslation", "core.Task",
	"core.TaskSpec.ServerLatencyBound", "core.TaskSpec.ServerLatencyPercentile",
	"dataset.Dataset", "dataset.Dataset.Sample", "dataset.Dataset.Size", "dataset.Kind", "dataset.KindImageClassification",
	"dataset.QSL.LoadSamplesToRAM", "dataset.QSL.TotalSampleCount", "dataset.QSL.UnloadSamplesFromRAM", "dataset.Sample", "dataset.Sample.Index",
	"harness.Assembly", "harness.Assembly.Dataset", "harness.Assembly.Engine", "harness.Assembly.NativeBackend", "harness.Assembly.QSL",
	"harness.Assembly.ServeLoopback", "harness.Assembly.Spec", "harness.BuildNative", "harness.BuildOptions", "harness.BuildOptions.Seed",
	"harness.BuildOptions.Workers", "harness.LoopbackDeployment", "harness.LoopbackDeployment.Close", "harness.LoopbackDeployment.Remote",
	"harness.LoopbackDeployment.Server", "harness.ServeOptions", "harness.ServeOptions.Client", "harness.ServeOptions.Server",
	"loadgen.AccuracyEntry", "loadgen.AccuracyEntry.Data", "loadgen.AccuracyEntry.SampleIndex", "loadgen.AccuracyMode",
	"loadgen.DefaultSettings", "loadgen.Offline", "loadgen.Query", "loadgen.Query.Class", "loadgen.Query.Complete", "loadgen.Query.ID",
	"loadgen.Query.Issued", "loadgen.Query.Samples", "loadgen.Query.Scheduled", "loadgen.Query.SetCompletionHandler",
	"loadgen.QuerySample.ID", "loadgen.QuerySample.Index",
	"loadgen.QuerySampleLibrary",
	"loadgen.Response", "loadgen.Response.Data", "loadgen.Response.SampleID",
	"loadgen.Result", "loadgen.Result.AccuracyLog", "loadgen.Result.OfflineSamplesPerSec", "loadgen.Result.QueriesCompleted",
	"loadgen.Result.QueryLatencies", "loadgen.Result.ResponsesDropped", "loadgen.Result.SamplesCompleted",
	"loadgen.Result.SamplesIssued", "loadgen.Result.ServerAchievedQPS", "loadgen.Result.SingleStreamLatency", "loadgen.Result.TestDuration",
	"loadgen.SUT", "loadgen.SUT.FlushQueries", "loadgen.SUT.IssueQuery", "loadgen.SUT.Name",
	"loadgen.Scenario", "loadgen.Server", "loadgen.SingleStream", "loadgen.StartTest",
	"loadgen.TestSettings", "loadgen.TestSettings.MaxQueryCount", "loadgen.TestSettings.MinDuration", "loadgen.TestSettings.MinQueryCount",
	"loadgen.TestSettings.MinSampleCount", "loadgen.TestSettings.Mode", "loadgen.TestSettings.QuerySeed", "loadgen.TestSettings.ScheduleSeed",
	"loadgen.TestSettings.ServerLatencyPercentile", "loadgen.TestSettings.ServerTargetLatency", "loadgen.TestSettings.ServerTargetQPS",
	"model.BatchSizer", "model.BatchSizer.PreferredBatch", "model.Engine", "model.Engine.Kind", "model.Engine.Name", "model.Engine.Predict",
	"model.Output", "model.Output.Encode", "model.Output.Kind",
	"parallel.Default", "parallel.For", "parallel.Pool.Workers",
	"payload.AppendClass", "payload.AppendTokens", "payload.DecodeClass", "payload.DecodeTokensInto",
	"serve.BatchBucket.Count", "serve.Config", "serve.Config.Engine", "serve.Config.Store", "serve.Config.Workers", "serve.Server.Metrics",
	"serve.Snapshot", "serve.Snapshot.Admitted", "serve.Snapshot.BatchHistogram", "serve.Snapshot.Completed", "serve.Snapshot.Errors",
	"serve.Snapshot.Expired", "serve.Snapshot.QueueP50", "serve.Snapshot.QueueP99", "serve.Snapshot.Rejected", "serve.Snapshot.ServiceP50",
	"serve.Snapshot.ServiceP99", "serve.Snapshot.Shed",
	"stats.LatencySummary.P50", "stats.LatencySummary.P99",
	"tensor.ActiveSIMD", "tensor.Conv2DBatchedInto", "tensor.Conv2DOptions", "tensor.Conv2DOptions.Padding", "tensor.Conv2DOptions.Stride",
	"tensor.DenseBatchedInto", "tensor.DepthwiseConv2DBatchedInto", "tensor.MatMulInto", "tensor.MatVecInto", "tensor.New", "tensor.NewScratch",
	"tensor.PostReLU", "tensor.PostReLU6", "tensor.SIMDTier.String", "tensor.Scratch", "tensor.Scratch.Reset", "tensor.Tensor",
	"tensor.Tensor.Data", "tensor.Tensor.Len",
}

// bannedSurface may not be touched at all: code slated for removal or
// redesign, which the benchmark must not hold in place. An entry is a
// package path or the prefix of a surface name.
var bannedSurface = []string{
	"mlperf/internal/trace", "mlperf/internal/nn", "mlperf/internal/simhw",
	"backend.Batching", "backend.NewBatching", "backend.SampleStore", "serve.SampleStore",
	"model.Classifier", "model.Detector", "model.Translator", "model.EngineFromClassifier", "model.EngineFromDetector", "model.EngineFromTranslator",
	"payload.CodecJSON", "payload.EncodeClassJSON", "payload.EncodeTokensJSON", "payload.EncodeBoxesJSON",
	"serve.MsgPredict", "serve.PredictRequest", "serve.PredictResponse",
}

const internalPrefix = "mlperf/internal/"

// exportData maps every package the benchmark depends on to the file the go
// command compiled its export data into.
func exportData(t *testing.T) map[string]string {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			files[path] = file
		}
	}
	return files
}

// ownerOf names the type a selected field or method belongs to: the type
// reached by following all but the last step of the selection's path from
// its receiver, so a member promoted through an embedded struct is charged
// to the struct that declares it.
func ownerOf(sel *types.Selection) string {
	t := sel.Recv()
	steps := sel.Index()
	for _, i := range steps[:len(steps)-1] {
		t = structOf(t).Field(i).Type()
	}
	return typeName(t)
}

func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}

// typeName is pkg.Type for a (pointer to a) named type of an internal
// package, "" for anything else.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), internalPrefix) {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// TestImportSurfaceIsPinned type-checks the benchmark's non-test files, lists
// every internal symbol, method and field they use, and fails if one is
// outside the allowed set.
func TestImportSurfaceIsPinned(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["main"].Files {
		files = append(files, f)
	}
	exports := exportData(t)
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fs.ErrNotExist
		}
		return os.Open(file)
	})}
	if _, err := conf.Check("main", fset, files, info); err != nil {
		t.Fatalf("type-checking the benchmark: %v", err)
	}

	used := map[string]bool{}
	imports := map[string]bool{}
	for _, file := range files {
		for _, imp := range file.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				// A package-level symbol of an internal package.
				if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), internalPrefix) && obj.Parent() == obj.Pkg().Scope() {
					used[obj.Pkg().Name()+"."+obj.Name()] = true
				}
			case *ast.SelectorExpr:
				// A field or method, through a value or an interface.
				if sel := info.Selections[n]; sel != nil {
					if owner := ownerOf(sel); owner != "" {
						used[owner+"."+sel.Obj().Name()] = true
					}
				}
			case *ast.CompositeLit:
				// Fields named in a struct literal of an internal type.
				owner := typeName(info.Types[n].Type)
				if owner == "" || structOf(info.Types[n].Type) == nil {
					break
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							used[owner+"."+key.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	allowed := map[string]bool{}
	for _, s := range allowedSurface {
		allowed[s] = true
	}
	var grown, unused []string
	for s := range used {
		if !allowed[s] {
			grown = append(grown, s)
		}
	}
	for s := range allowed {
		if !used[s] {
			unused = append(unused, s)
		}
	}
	sort.Strings(grown)
	sort.Strings(unused)
	if len(grown) > 0 {
		t.Errorf("the benchmark's import surface grew by %q; it may only shrink", grown)
	}
	if len(unused) > 0 {
		t.Errorf("allowedSurface lists %q, which the benchmark no longer uses: delete them", unused)
	}
	for _, b := range bannedSurface {
		if imports[b] {
			t.Errorf("the benchmark imports %s, which it must not hold in place", b)
		}
		for s := range used {
			if s == b || strings.HasPrefix(s, b+".") {
				t.Errorf("the benchmark uses %s, which it must not hold in place", s)
			}
		}
	}
}
