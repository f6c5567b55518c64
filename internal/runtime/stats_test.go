package runtime

import (
	"reflect"
	"testing"

	"github.com/ccp-repro/ccp/internal/core"
)

// TestAddAgentStatsSumsEveryCounter: Stats().Agent is summed by hand, field
// by field, so a field added to core.AgentStats without a line in
// addAgentStats would read zero for ever. Three shards whose counters hold
// 1, 2, 3, ... in declaration order must sum to three times each, in the same
// field (TestShardedStatsSumInstallErrs drives the same sum through real
// shards).
func TestAddAgentStatsSumsEveryCounter(t *testing.T) {
	var shard core.AgentStats
	v := reflect.ValueOf(&shard).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	const shards = 3
	var sum core.AgentStats
	for range shards {
		addAgentStats(&sum, shard)
	}
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if n, want := got.Field(i).Int(), int64(shards*(i+1)); n != want {
			t.Errorf("AgentStats.%s sums to %d over %d shards, want %d", got.Type().Field(i).Name, n, shards, want)
		}
	}
}
