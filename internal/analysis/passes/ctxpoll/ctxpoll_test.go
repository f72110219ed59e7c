package ctxpoll_test

import (
	"testing"

	"conquer/internal/analysis/analysistest"
	"conquer/internal/analysis/passes/ctxpoll"
)

func TestCtxpoll(t *testing.T) {
	analysistest.Run(t, "testdata", ctxpoll.Analyzer, "ctxpollfix")
}

func TestCtxpollCandidateWorldLoops(t *testing.T) {
	analysistest.Run(t, "testdata", ctxpoll.Analyzer, "worldfix")
}
