package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseExps(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string // nil: an error naming the bad experiment
	}{
		{"all", []string{"all"}},
		{"table2", []string{"table2"}},
		{"table1, fig10,optgap", []string{"table1", "fig10", "optgap"}},
		{"tabel2", nil},
		{"table2,obs", nil},
		{"", nil},
	} {
		got, err := parseExps(tc.in)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "valid: table1") {
				t.Errorf("parseExps(%q) = %v, %v; want an error listing the valid names", tc.in, got, err)
			}
			continue
		}
		want := map[string]bool{}
		for _, e := range tc.want {
			want[e] = true
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseExps(%q) = %v, %v; want %v", tc.in, got, err, want)
		}
	}
}
