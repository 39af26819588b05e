package figures

import (
	"fmt"
	"testing"

	"phastlane/internal/exp"
)

// The figures layer fans grids out over the exp engine; these tests pin
// the guarantee users rely on when passing -parallel: worker count never
// changes any reported number.

func TestFig9DeterministicAcrossWorkerCounts(t *testing.T) {
	opts := Fig9Opts{
		Rates:  []float64{0.02, 0.10, 0.30},
		Warmup: 150, Measure: 500, Seed: 5,
	}
	serial := Fig9(opts, exp.Options{Workers: 1})
	parallel := Fig9(opts, exp.Options{Workers: 8})
	if got, want := fmt.Sprintf("%#v", parallel), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("Fig9 differs across worker counts:\nworkers=1: %s\nworkers=8: %s", want, got)
	}
	if len(serial) != 4 {
		t.Fatalf("Fig9 produced %d patterns, want 4", len(serial))
	}
	for _, res := range serial {
		if len(res.Curves) != len(Fig9Configs()) {
			t.Errorf("%s: %d curves, want %d", res.Pattern, len(res.Curves), len(Fig9Configs()))
		}
	}
}

func TestSplashDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := SplashOpts{Benchmarks: []string{"Barnes", "LU"}, Messages: 1500, Seed: 5}
	serial, err := Splash(opts, exp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Splash(opts, exp.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", parallel), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("Splash differs across worker counts:\nworkers=1: %s\nworkers=8: %s", want, got)
	}
}

func TestSensitivityDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := SensitivityOpts{Benchmark: "LU", Messages: 1200, Seed: 5}
	serial, err := Sensitivity(opts, exp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sensitivity(opts, exp.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", parallel), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("Sensitivity differs across worker counts:\nworkers=1: %s\nworkers=8: %s", want, got)
	}
}

func TestCompareDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := CompareOpts{Rates: []float64{0.02, 0.10}, Warmup: 150, Measure: 500, Messages: 1200, Seed: 5}
	serial, err := Compare(opts, exp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Compare(opts, exp.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", parallel), fmt.Sprintf("%#v", serial); got != want {
		t.Errorf("Compare differs across worker counts:\nworkers=1: %s\nworkers=8: %s", want, got)
	}
}
