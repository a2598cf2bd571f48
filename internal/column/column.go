// Package column implements the column-store storage and access model
// of the paper's §5.1 (Figure 6): every attribute of a table is stored
// separately as a dense array; all columns of a table are aligned so
// that all attribute values of tuple i appear at position i of their
// respective columns; query processing touches one column at a time in
// bulk, operator-at-a-time mode (select → fetch → aggregate).
package column

import (
	"fmt"

	"adaptix/internal/crackindex"
	"adaptix/internal/sideways"
)

// Column is one attribute stored as a dense array of int64 values.
type Column struct {
	name string
	vals []int64
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Len returns the number of values.
func (c *Column) Len() int { return len(c.vals) }

// Values returns the backing array. Callers must treat it as
// read-only: the base column is immutable, all reorganization happens
// in the cracker index's auxiliary copy (paper §5.2).
func (c *Column) Values() []int64 { return c.vals }

// Fetch appends the values at the given aligned positions to dst,
// implementing the positional fetch operator of the Figure 6 plan.
func (c *Column) Fetch(dst []int64, ids []uint32) []int64 {
	for _, id := range ids {
		dst = append(dst, c.vals[id])
	}
	return dst
}

// Table is a set of aligned columns.
type Table struct {
	name string
	n    int
	cols map[string]*Column
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, n: -1, cols: make(map[string]*Column)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the number of tuples (0 for an empty table).
func (t *Table) Rows() int {
	if t.n < 0 {
		return 0
	}
	return t.n
}

// AddColumn registers vals as a new column. All columns of a table
// must be aligned: adding a column of a different length is an error.
func (t *Table) AddColumn(name string, vals []int64) error {
	if _, dup := t.cols[name]; dup {
		return fmt.Errorf("column: table %s already has column %s", t.name, name)
	}
	if t.n >= 0 && len(vals) != t.n {
		return fmt.Errorf("column: table %s column %s has %d values, want %d",
			t.name, name, len(vals), t.n)
	}
	t.n = len(vals)
	t.cols[name] = &Column{name: name, vals: vals}
	return nil
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("column: table %s has no column %s", t.name, name)
	}
	return c, nil
}

// Executor evaluates the paper's bulk, operator-at-a-time query plans
// over a table, using adaptive indexing (database cracking) for the
// select operator. Cracker indexes are created lazily per column and
// tracked in a registry guarded by a global latch (paper §5.3).
// Multi-column plans can alternatively use sideways cracking maps
// (SumSidewaysWhere), which self-organize (selection, projection)
// pairs and avoid the positional fetch entirely.
type Executor struct {
	tab      *Table
	reg      *crackindex.Registry
	sideways *sideways.Registry
	opts     crackindex.Options
}

// NewExecutor creates an executor over tab; opts configures the
// cracker indexes it creates.
func NewExecutor(tab *Table, opts crackindex.Options) *Executor {
	return &Executor{
		tab:      tab,
		reg:      crackindex.NewRegistry(),
		sideways: sideways.NewRegistry(),
		opts:     opts,
	}
}

// index returns (creating if needed) the cracker index for col.
func (e *Executor) index(col string) (*crackindex.Index, error) {
	c, err := e.tab.Column(col)
	if err != nil {
		return nil, err
	}
	return e.reg.GetOrCreate(e.tab.name+"."+col, c.Values(), e.opts), nil
}

// Index exposes the cracker index of a column (for stats inspection).
func (e *Executor) Index(col string) (*crackindex.Index, bool) {
	return e.reg.Get(e.tab.name + "." + col)
}

// CountWhere evaluates: select count(*) from t where lo <= selCol < hi
// (query type Q1). The selection cracks selCol as a side effect.
func (e *Executor) CountWhere(selCol string, lo, hi int64) (int64, crackindex.OpStats, error) {
	ix, err := e.index(selCol)
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	n, st := ix.Count(lo, hi)
	return n, st, nil
}

// SumWhere evaluates: select sum(selCol) from t where lo <= selCol < hi
// (query type Q2): selection/cracking plus aggregation on the same
// column.
func (e *Executor) SumWhere(selCol string, lo, hi int64) (int64, crackindex.OpStats, error) {
	ix, err := e.index(selCol)
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	s, st := ix.Sum(lo, hi)
	return s, st, nil
}

// SumSidewaysWhere evaluates select sum(aggCol) where lo <= selCol < hi
// through a sideways-cracking map M(selCol, aggCol): the map carries
// the aggregation values along every crack, so once refined the plan
// reads one contiguous run of tail values instead of doing a
// positional fetch (reference [22]; see internal/sideways).
func (e *Executor) SumSidewaysWhere(aggCol, selCol string, lo, hi int64) (int64, crackindex.OpStats, error) {
	sel, err := e.tab.Column(selCol)
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	agg, err := e.tab.Column(aggCol)
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	skipPolicy := sideways.Wait
	if e.opts.OnConflict == crackindex.Skip {
		skipPolicy = sideways.Skip
	}
	m := e.sideways.GetOrCreate(selCol, aggCol, sel.Values(), agg.Values(),
		sideways.Options{OnConflict: skipPolicy})
	s, st := m.SumTargetWhere(lo, hi)
	return s, st, nil
}

// SidewaysMaps returns the number of cracker maps materialized.
func (e *Executor) SidewaysMaps() int { return e.sideways.Len() }

// SumFetchWhere evaluates the full Figure 6 plan:
// select sum(aggCol) from t where lo <= selCol < hi.
// The select operator cracks selCol and produces qualifying rowIDs;
// the fetch operator positionally collects aggCol values; the
// aggregation sums them in one go. Each column is only used for a
// brief part of the plan, which is why short-term latches suffice
// (paper §5.1).
func (e *Executor) SumFetchWhere(aggCol, selCol string, lo, hi int64) (int64, crackindex.OpStats, error) {
	ix, err := e.index(selCol)
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	agg, err := e.tab.Column(aggCol)
	if err != nil {
		return 0, crackindex.OpStats{}, err
	}
	ids, st := ix.SelectRowIDs(lo, hi)
	// The base columns are immutable, so the fetch and the final
	// aggregation need no latches at all: column A's latch was already
	// released when the select operator finished (Figure 6 discussion).
	var sum int64
	for _, id := range ids {
		sum += agg.Values()[id]
	}
	return sum, st, nil
}
