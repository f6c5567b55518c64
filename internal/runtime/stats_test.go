package runtime

import (
	"reflect"
	"testing"

	"github.com/ccp-repro/ccp/internal/core"
)

// TestAddAgentStatsSumsEveryCounter: Stats().Agent sums the shards' counters
// with core.AgentStats.Add, one loop over the struct's fields, so a field
// added to core.AgentStats is summed with no line to add. Three shards whose
// counters hold 1, 2, 3, ... in declaration order must sum to three times
// each, in the same field (TestShardedStatsSumInstallErrs drives the same sum
// through real shards).
func TestAddAgentStatsSumsEveryCounter(t *testing.T) {
	var shard core.AgentStats
	v := reflect.ValueOf(&shard).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	const shards = 3
	var sum core.AgentStats
	for range shards {
		sum.Add(&shard)
	}
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if n, want := got.Field(i).Int(), int64(shards*(i+1)); n != want {
			t.Errorf("AgentStats.%s sums to %d over %d shards, want %d", got.Type().Field(i).Name, n, shards, want)
		}
	}
}
