// Package testdata holds what the tests of several packages share:
// costs.txt, the table of access costs both engines and the layout's
// stripe plan are held to, with its one parser, and the go/parser walker
// of the structure tests (source.go). A package
// under a testdata directory is passed over by `go build ./...` and `go
// test ./...`; the tests that read the table import it by its path.
package testdata

import (
	_ "embed"
	"fmt"
	"strings"
)

//go:embed costs.txt
var costs string

// Cost is one row of costs.txt; its header says what the columns mean.
type Cost struct {
	Op, Plane, Lost, Reconstruct, Name string
	C, G, M, K, Reads, Writes          int
}

// For reports whether the row prices op (R or W) on plane: its own rows
// and the both rows.
func (c Cost) For(op, plane string) bool {
	return c.Op == op && (c.Plane == plane || c.Plane == "both")
}

// Costs parses the table. A key (op C G m lost k) must have one both row,
// or one array row and then one store row.
func Costs() ([]Cost, error) {
	var rows []Cost
	planes := map[string]string{}
	for _, line := range strings.Split(costs, "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		var r Cost
		if _, err := fmt.Sscan(line, &r.Op, &r.Plane, &r.C, &r.G, &r.M, &r.Lost, &r.K, &r.Reads, &r.Writes, &r.Reconstruct, &r.Name); err != nil {
			return nil, fmt.Errorf("costs.txt: %q: %v", line, err)
		}
		if r.Op != "R" && r.Op != "W" {
			return nil, fmt.Errorf("costs.txt: %q: op %q, want R or W", line, r.Op)
		}
		key := fmt.Sprint(r.Op, r.C, r.G, r.M, r.Lost, r.K)
		planes[key] += " " + r.Plane
		rows = append(rows, r)
	}
	for key, p := range planes {
		if p != " both" && p != " array store" {
			return nil, fmt.Errorf("costs.txt: key %s has rows%s; want both, or array then store", key, p)
		}
	}
	return rows, nil
}
