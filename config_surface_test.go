package adaptix

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// configSurface is every exported With* function of the package and
// every exported field of the option types the facade exposes. A knob is
// added here, in review, or not at all: an option earns its place only
// when two programs need different values of it.
var configSurface = []string{
	"CaptureOptions.MaxBytes",
	"CaptureOptions.Ring",
	"CaptureOptions.SampleEvery",
	"CaptureOptions.Sink",
	"HealthOptions.Interval",
	"HealthOptions.MaxWALBytes",
	"IngestOptions.ApplyThreshold",
	"IngestOptions.CheckEvery",
	"IngestOptions.MinShardRows",
	"IngestOptions.SplitFactor",
	"ObsOptions.SampleEvery",
	"ObsOptions.StallThreshold",
	"ServeOptions.ConnQuota",
	"ServeOptions.FrameTimeout",
	"ServeOptions.MaxInFlight",
	"ServeOptions.Window",
	"WithCheckpointEvery",
	"WithHealth",
	"WithIngestOptions",
	"WithLogWrites",
	"WithMethod",
	"WithNoSync",
	"WithObservability",
	"WithQueryTag",
	"WithSeed",
	"WithSegmentBytes",
	"WithShards",
	"WithSyncEvery",
	"WithSyncInterval",
	"WithValues",
	"WithWorkloadCapture",
}

// TestConfigSurface fails when a With* function or an option field is
// added or removed without the same edit to configSurface.
func TestConfigSurface(t *testing.T) {
	var got []string
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
				got = append(got, fn.Name.Name)
			}
		}
	}
	for name, typ := range map[string]reflect.Type{
		"IngestOptions":  reflect.TypeFor[IngestOptions](),
		"ObsOptions":     reflect.TypeFor[ObsOptions](),
		"CaptureOptions": reflect.TypeFor[CaptureOptions](),
		"HealthOptions":  reflect.TypeFor[HealthOptions](),
		"ServeOptions":   reflect.TypeFor[ServeOptions](),
	} {
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, name+"."+f.Name)
			}
		}
	}
	slices.Sort(got)
	for _, k := range got {
		if !slices.Contains(configSurface, k) {
			t.Errorf("new knob %s: add it to configSurface (and say which program sets it)", k)
		}
	}
	for _, k := range configSurface {
		if !slices.Contains(got, k) {
			t.Errorf("%s is gone: drop it from configSurface", k)
		}
	}
}
