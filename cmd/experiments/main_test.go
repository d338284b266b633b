package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	all := []string{"baseline", "2", "5a", "5b", "5c", "6", "7", "8"}
	for _, tc := range []struct {
		list string
		want []string // nil: an error naming the bad figure
		bad  string
	}{
		{list: "all", want: all},
		{list: "5b,7", want: []string{"5b", "7"}},
		{list: " 5A , baseline ", want: []string{"5a", "baseline"}},
		{list: "ablations", want: []string{"ablations"}},
		{list: "all,ablations", want: append(append([]string(nil), all...), "ablations")},
		{list: "5d", bad: "5d"},
		{list: "5a,ablation", bad: "ablation"},
		{list: "", bad: `""`},
	} {
		got, err := parseFigs(tc.list)
		if tc.bad != "" {
			if err == nil {
				t.Errorf("parseFigs(%q) accepted an unknown figure", tc.list)
			} else if !strings.Contains(err.Error(), tc.bad) || !strings.Contains(err.Error(), "ablations") {
				t.Errorf("parseFigs(%q) error %q should name %s and list the valid figures", tc.list, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.list, err)
			continue
		}
		want := map[string]bool{}
		for _, n := range tc.want {
			want[n] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseFigs(%q) = %v, want %v", tc.list, got, want)
		}
	}
}
