package main

import (
	"slices"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	allButAblation := slices.DeleteFunc(slices.Clone(experiments), func(name string) bool { return name == "ablation" })
	cases := []struct {
		list    string
		want    []string
		wantErr string // substring of the error; "" = success
	}{
		{list: "all", want: allButAblation},
		{list: "all,ablation", want: experiments},
		{list: "ablation", want: []string{"ablation"}},
		{list: "fileio,ablation", want: []string{"fileio", "ablation"}},
		{list: "revoke-sweep", want: []string{"revoke-sweep"}},
		{list: "fileio,,metadata,", want: []string{"fileio", "metadata"}},
		{list: "crypto", wantErr: `"crypto"`},
		{list: "revoke_sweep", wantErr: `"revoke_sweep"`},
		{list: "fileio,nonsense,metadata", wantErr: `"nonsense"`},
		{list: "revoke", want: []string{"revoke"}}, // not a prefix match of revoke-sweep
		{list: "", wantErr: "names no experiment"},
		{list: ",", wantErr: "names no experiment"},
	}
	for _, c := range cases {
		got, err := selectExperiments(c.list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-exp %q: err = %v, want mention of %s", c.list, err, c.wantErr)
			} else if !strings.Contains(err.Error(), "revoke-sweep") {
				t.Errorf("-exp %q: error does not print the valid set: %v", c.list, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", c.list, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("-exp %q selected %v, want %v", c.list, got, c.want)
		}
		for _, name := range c.want {
			if !got[name] {
				t.Errorf("-exp %q did not select %s", c.list, name)
			}
		}
	}
}

// TestRunRejectsScaleBelowOne: -scale divides file sizes, so 0 would
// divide by zero in the -json report and a negative value would make
// negative sizes; both are refused before any experiment runs.
func TestRunRejectsScaleBelowOne(t *testing.T) {
	for _, scale := range []string{"0", "-1"} {
		err := run([]string{"-scale", scale, "-json", "-exp", "fileio"})
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: err = %v, want a -scale error", scale, err)
		}
	}
}
