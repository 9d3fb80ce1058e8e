package bench

import (
	"testing"

	"datampi/internal/core"
	"datampi/internal/diskio"
)

// go test -bench AHeavy ./internal/bench times the A-side merge pipeline
// on the same workload the regress harness snapshots as shuffle-aheavy/mem.
func BenchmarkAHeavy(b *testing.B) {
	disks := make([]*diskio.Disk, 2)
	for i := range disks {
		d, err := diskio.New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		disks[i] = d
	}
	var res *core.Result
	fn := aheavyJob(3000, 0, disks, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}
