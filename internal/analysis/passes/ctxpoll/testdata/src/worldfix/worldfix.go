// Package core seeds candidate-world loops for the ctxpoll analyzer's
// dirty/core rule (the analyzer keys on the package name, so the fixture
// declares itself "core").
package core

import "context"

type ticker struct{}

func (t *ticker) Poll(ctx context.Context) error { return nil }

// FromContext stands in for qerr.FromContext.
func FromContext(ctx context.Context) error { return ctx.Err() }

type table struct{ rows [][]int }

func (t *table) SetRow(i int, row []int) error { t.rows[i] = row; return nil }

type world struct {
	tables []*table
	tick   ticker
}

type candidate struct{ chosen [][]int }

type candidates struct{}

func (candidates) Sample(c *candidate) {}

type prepared struct{}

func (prepared) Run(ctx context.Context) ([][]int, error) { return nil, nil }

// badFill refills every row of every table and never looks at ctx.
func (w *world) badFill(ctx context.Context, c *candidate, src [][]int) error {
	for t, tb := range w.tables { // want `steps a candidate world without checking the context`
		for i, row := range c.chosen[t] {
			if err := tb.SetRow(i, src[row]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fill polls its ticker per row; the outer loop is vouched for by the
// same check.
func (w *world) Fill(ctx context.Context, c *candidate, src [][]int) error {
	for t, tb := range w.tables {
		for i, row := range c.chosen[t] {
			if err := w.tick.Poll(ctx); err != nil {
				return err
			}
			if err := tb.SetRow(i, src[row]); err != nil {
				return err
			}
		}
	}
	return nil
}

// badSample is a Monte-Carlo loop that outlives its context by n samples.
func badSample(ctx context.Context, cs candidates, w *world, p prepared, n int) error {
	c := &candidate{}
	for i := 0; i < n; i++ { // want `steps a candidate world without checking the context`
		cs.Sample(c)
		if _, err := p.Run(ctx); err != nil {
			return err
		}
	}
	return nil
}

// goodSample checks the context before every draw, inside a function
// literal like core's draw functions.
func goodSample(ctx context.Context, cs candidates, p prepared, n int) func() error {
	return func() error {
		c := &candidate{}
		for i := 0; i < n; i++ {
			if err := FromContext(ctx); err != nil {
				return err
			}
			cs.Sample(c)
			if _, err := p.Run(ctx); err != nil {
				return err
			}
		}
		return nil
	}
}

// unrelated loops are not world loops: nothing steps.
func unrelated(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
