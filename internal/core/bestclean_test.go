package core

import (
	"context"
	"testing"

	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// The paper's introduction argues that cleaning offline by keeping each
// cluster's highest-probability tuple loses answers: in the Figure-1
// database it removes t1, s2 and s3, leaving card 111 paired only with
// Marion (income $40K), so "customers earning over $100K" comes back
// empty — while the clean-answer semantics reports card 111 with
// probability 0.6. This test reproduces the whole contrast.
func TestIntroductionBestTupleCleaningLosesAnswers(t *testing.T) {
	d := testdb.Figure1()
	q := sqlparse.MustParse(
		"select l.cardid from loyaltycard l, customer c where l.custfk = c.id and c.income > 100000")

	// Offline best-tuple cleaning: the query result is empty.
	cleaned, err := d.CleanByBestTuple()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(cleaned).QueryStmt(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("best-tuple cleaning should lose card 111; got %d rows", len(res.Rows))
	}

	// The kept tuples are the ones the paper names: t2 (card 111 -> c2,
	// 0.6), s1 (John 120K, 0.9) and s4 (Marion 40K, 0.8).
	card, _ := cleaned.Table("loyaltycard")
	if card.Len() != 1 || card.Row(0)[2].AsString() != "c2" {
		t.Errorf("kept card tuple: %v", card.Rows())
	}
	cust, _ := cleaned.Table("customer")
	names := map[string]bool{}
	for _, r := range cust.Rows() {
		names[r[1].AsString()] = true
	}
	if !names["John"] || !names["Marion"] || names["Mary"] {
		t.Errorf("kept customers: %v", names)
	}

	// Clean answers keep the information: card 111 at probability 0.6.
	clean, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.Find(value.Int(111)); got < 0.6-1e-9 || got > 0.6+1e-9 {
		t.Errorf("clean answer P(card 111) = %v, want 0.6", got)
	}
}

// Even the single most likely candidate database carries a small share of
// the probability mass, so answering from any one cleaning is lossy.
// That candidate is the best-tuple cleaning, whose probability is the
// product of the tuples it keeps.
func TestMostLikelyCandidateMass(t *testing.T) {
	d := testdb.Figure1()
	clean, err := d.CleanByBestTuple()
	if err != nil {
		t.Fatal(err)
	}
	mass := 1.0
	for _, name := range clean.TableNames() {
		tb, _ := clean.Table(name)
		if !tb.Schema.IsDirty() {
			continue
		}
		for _, row := range tb.Rows() {
			mass *= row[tb.Schema.ProbIndex()].AsFloat()
		}
	}
	// 0.6 (card) * 0.9 (John 120K) * 0.6 (Marion) = 0.324.
	if mass < 0.324-1e-9 || mass > 0.324+1e-9 {
		t.Errorf("best candidate probability = %v, want 0.324", mass)
	}
}
