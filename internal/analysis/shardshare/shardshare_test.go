package shardshare_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/shardshare"
)

func TestShardshare(t *testing.T) {
	analysistest.Run(t, "testdata", shardshare.Analyzer, "parsim")
}
