package launch

import (
	"reflect"
	"strings"
	"testing"
)

// lastEnv returns the value the spawned process sees for key: the last
// entry wins, as os/exec resolves duplicates.
func lastEnv(env []string, key string) (string, bool) {
	val, ok := "", false
	for _, kv := range env {
		if v, found := strings.CutPrefix(kv, key+"="); found {
			val, ok = v, true
		}
	}
	return val, ok
}

// TestSpawnEnvShipsMasterEngine pins the one-engine contract of a fleet:
// the worker's decode of spawnEnv's output — the same decode JoinAsWorker
// runs — equals the Engine the master's own world uses. Every field is
// set non-zero by reflection, so a field added to mpi.Engine that the
// spawn environment drops fails here rather than as silent drift.
func TestSpawnEnvShipsMasterEngine(t *testing.T) {
	cfg := ClusterConfig{Procs: 2}
	if _, ok := lastEnv(cfg.spawnEnv(0, 0, "127.0.0.1:1", true), EnvEngine); ok {
		t.Errorf("zero Engine: %s set, want it omitted", EnvEngine)
	}

	v := reflect.ValueOf(&cfg.Engine).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000*(i+1) + 7))
		default:
			t.Fatalf("mpi.Engine.%s has kind %s, which this test cannot set; extend it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	val, ok := lastEnv(cfg.spawnEnv(0, 0, "127.0.0.1:1", true), EnvEngine)
	if !ok {
		t.Fatalf("%s missing from the spawn environment", EnvEngine)
	}
	t.Setenv(EnvEngine, val)
	got, err := engineFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg.Engine {
		t.Errorf("worker engine %+v, master engine %+v", got, cfg.Engine)
	}
}

// TestJoinAsWorkerRejectsMalformedEngine: a malformed engine value fails
// the join with an error naming the variable, before the worker opens an
// endpoint or dials the rendezvous.
func TestJoinAsWorkerRejectsMalformedEngine(t *testing.T) {
	t.Setenv(EnvWorkerRank, "0")
	t.Setenv(EnvProcs, "1")
	t.Setenv(EnvRendezvous, "127.0.0.1:1")
	t.Setenv(EnvEngine, `{"ChunkBytes":"many"}`)
	w, err := JoinAsWorker()
	if err == nil {
		w.World.Close()
		t.Fatal("JoinAsWorker accepted a malformed engine")
	}
	if !strings.Contains(err.Error(), EnvEngine) {
		t.Errorf("error %q does not name %s", err, EnvEngine)
	}
}
