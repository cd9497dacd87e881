package main

import (
	"fmt"
	"slices"
	"strings"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// refQuery is a read the benchmark answers itself: a WSA expression
// evaluated with wsdexec.EvalOpts on the generated decomposition, plus
// an optional per-world aggregate for statements outside the fragment.
type refQuery struct {
	key  string
	expr wsa.Expr
	agg  func(*relation.Relation) *relation.Relation
}

func lookupRef(kind wsa.CloseKind, ssn int64, cols ...string) *refQuery {
	e := &wsa.Close{Kind: kind, From: &wsa.Project{Columns: cols,
		From: eqConst("SSN", value.Int(ssn), &wsa.Rel{Name: "Clean"})}}
	return &refQuery{key: e.String(), expr: e}
}

// sumRef answers `select sum(Price) as Total from LineYear where
// Product = p`: one Total per world.
func sumRef(p string) *refQuery {
	e := eqConst("Product", value.Str(p), &wsa.Rel{Name: "LineYear"})
	return &refQuery{key: "sum " + e.String(), expr: e, agg: func(in *relation.Relation) *relation.Relation {
		price := in.Schema().Index("Price")
		var total int64
		in.Each(func(t relation.Tuple) { total += t[price].AsInt() })
		out := relation.New(relation.NewSchema("Total"))
		out.InsertValues(value.Int(total))
		return out
	}}
}

// yearTotalsRef answers `select Year, count(*) as N, sum(Price) as
// Total from LineYear group by Year`.
func yearTotalsRef() *refQuery {
	e := &wsa.Rel{Name: "LineYear"}
	return &refQuery{key: "year-totals", expr: e, agg: func(in *relation.Relation) *relation.Relation {
		year, price := in.Schema().Index("Year"), in.Schema().Index("Price")
		n, total := map[int64]int64{}, map[int64]int64{}
		in.Each(func(t relation.Tuple) {
			n[t[year].AsInt()]++
			total[t[year].AsInt()] += t[price].AsInt()
		})
		out := relation.New(relation.NewSchema("Year", "N", "Total"))
		for y := range n {
			out.InsertValues(value.Int(y), value.Int(n[y]), value.Int(total[y]))
		}
		return out
	}}
}

// referenceDB replays the workload's setup CTAS statements in process:
// Clean = repair-by-key(SSN) of Census, LineYear = choice-of(Year) of
// Lineitem, each appended the way a CTAS appends its result relation.
func referenceDB(cat *store.Catalog) (*wsd.DecompDB, error) {
	db := cat.Snapshot().DB
	for _, ct := range []struct {
		name string
		q    wsa.Expr
	}{
		{"Clean", &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}},
		{"LineYear", &wsa.Choice{Attrs: []string{"Year"}, From: &wsa.Rel{Name: "Lineitem"}}},
	} {
		out, _, err := wsdexec.EvalOpts(ct.q, db, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", ct.name, err)
		}
		db = out.RenameRelation(len(out.Names)-1, ct.name).Normalize()
	}
	return db, nil
}

// referee computes and memoizes reference answers.
type referee struct {
	db   *wsd.DecompDB
	memo map[string][]string
}

func (r *referee) answers(q *refQuery) ([]string, error) {
	if a, ok := r.memo[q.key]; ok {
		return a, nil
	}
	out, _, err := wsdexec.EvalOpts(q.expr, r.db, nil)
	if err != nil {
		return nil, err
	}
	insts, err := out.Instances(len(out.Names)-1, 0)
	if err != nil {
		return nil, err
	}
	var ans []string
	for _, in := range insts {
		if q.agg != nil {
			in = q.agg(in)
		}
		ans = append(ans, canonRelation(in))
	}
	ans = sortedSet(ans)
	r.memo[q.key] = ans
	return ans, nil
}

// canonRelation renders a relation as its header and sorted rows, the
// form parseAnswers gives a rendered protocol answer.
func canonRelation(r *relation.Relation) string {
	var rows []string
	r.Each(func(t relation.Tuple) {
		cells := make([]string, len(t))
		for i, v := range t {
			cells[i] = v.String()
		}
		rows = append(rows, strings.Join(cells, "|"))
	})
	return canon([]string(r.Schema()), rows)
}

func canon(header, rows []string) string {
	slices.Sort(rows)
	return strings.Join(header, "|") + "\n" + strings.Join(rows, "\n")
}

// parseAnswers extracts every answer table from a protocol response:
// a caption line ("answer" or "answer variant i of n"), a header, a
// dash rule, then rows (or "(empty)") up to a blank line. The result is
// the sorted set of canonical answers.
func parseAnswers(body string) ([]string, error) {
	lines := strings.Split(body, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "answer") {
			continue
		}
		if i+2 >= len(lines) || strings.Trim(lines[i+2], "-") != "" {
			return nil, fmt.Errorf("malformed answer table at line %d", i+1)
		}
		header := strings.Fields(lines[i+1])
		var rows []string
		j := i + 3
		for ; j < len(lines) && lines[j] != ""; j++ {
			if lines[j] == "(empty)" {
				continue
			}
			cells := strings.Fields(lines[j])
			if len(cells) != len(header) {
				return nil, fmt.Errorf("row %q does not match header %v", lines[j], header)
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
		out = append(out, canon(header, rows))
		i = j
	}
	return sortedSet(out), nil
}

func sortedSet(xs []string) []string {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// singleValue is the canonical answer holding one column and one row.
func singleValue(col, v string) []string { return []string{canon([]string{col}, []string{v})} }
