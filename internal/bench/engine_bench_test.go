package bench

import (
	"testing"

	"datampi/internal/core"
)

// Link A/B benchmark: the same shuffle over loopback TCP and over shm
// rings, runnable interleaved (-count=N) so machine drift does not
// masquerade as a link effect the way two separate benchsuite processes
// can.
func BenchmarkShuffleTCP(b *testing.B) {
	const records = 4000
	for _, c := range []struct {
		name  string
		knobs shuffleKnobs
	}{
		{"engine-on", shuffleKnobs{tcp: true}},
		{"shm", shuffleKnobs{tcp: true, shm: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			fn := shuffleJob(records, 0, 0, c.knobs, &res)
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
