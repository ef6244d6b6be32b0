package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments: -run selects catalog entries in catalog order, an
// id shared by several entries selects each, and an id no entry has is an
// error naming it and every valid id, so a typo runs nothing silently.
func TestSelectExperiments(t *testing.T) {
	for _, c := range []struct {
		run  string
		want []string // the selected entries' ids
	}{
		{"all", nil},
		{"fig8-1", []string{"fig8,fig8-1,fig8-2"}},
		{"fig8-2, fig8-1", []string{"fig8,fig8-1,fig8-2"}},
		{"fig8", []string{"fig8,fig8-1,fig8-2", "fig8,fig8-3,fig8-4"}},
		{"ext-lse,fig4-3", []string{"fig4-3", "ext-lse"}},
	} {
		got, err := selectExperiments(c.run)
		if err != nil {
			t.Fatalf("-run %q: %v", c.run, err)
		}
		if c.want == nil {
			if len(got) != len(catalog) {
				t.Errorf("-run all selected %d of %d entries", len(got), len(catalog))
			}
			continue
		}
		var ids []string
		for _, e := range got {
			ids = append(ids, e.ids)
		}
		if strings.Join(ids, " ") != strings.Join(c.want, " ") {
			t.Errorf("-run %q selected %q, want %q", c.run, ids, c.want)
		}
	}
	for _, run := range []string{"fig9", "fig8-1,fig9", ""} {
		_, err := selectExperiments(run)
		if err == nil {
			t.Fatalf("-run %q accepted", run)
		}
		for _, id := range []string{"all", "fig4-3", "fig8-4", "double-failure"} {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("-run %q: error %q does not list %s", run, err, id)
			}
		}
	}
}
