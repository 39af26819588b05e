package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseOnly checks the -only stage selection: empty selects every
// stage, selected stages always come back in run order, and an unknown
// or empty element is an error naming all seven stages.
func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string
	}{
		{"", []string{"design", "fig9", "splash", "compare", "sensitivity", "faults", "congestion"}},
		{"congestion,faults,design", []string{"design", "faults", "congestion"}},
		{"fig9,compare", []string{"fig9", "compare"}},
		{"compare,fig9", []string{"fig9", "compare"}},
		{" sensitivity , design ", []string{"design", "sensitivity"}},
		{"splash,splash", []string{"splash"}},
	} {
		got, err := parseOnly(tc.list)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseOnly(%q) = %q, %v; want %q", tc.list, got, err, tc.want)
		}
	}
	for _, list := range []string{"fig10", "fig9,", ",compare", "fig9,,compare", "Fig9"} {
		got, err := parseOnly(list)
		if err == nil {
			t.Errorf("parseOnly(%q) = %q, want an error", list, got)
			continue
		}
		for _, stage := range stages {
			if !strings.Contains(err.Error(), stage) {
				t.Errorf("parseOnly(%q) error %q does not name stage %q", list, err, stage)
			}
		}
	}
}
