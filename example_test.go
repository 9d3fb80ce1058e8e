package datampi_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"datampi"
)

// ExampleRun runs the paper's canonical bipartite job: O tasks emit
// (word, 1) pairs, the library partitions/sorts/routes them, and A tasks
// fold each word's group into a count — WordCount in the MapReduce mode.
func ExampleRun() {
	docs := []string{
		"hello world",
		"hello datampi world",
	}
	var mu sync.Mutex
	counts := map[string]int{}

	job := &datampi.Job{
		Mode: datampi.MapReduce,
		Conf: datampi.Config{ValueCodec: datampi.Int64Codec},
		NumO: len(docs),
		NumA: 2,
		OTask: func(ctx *datampi.Context) error {
			for _, w := range splitWords(docs[ctx.Rank()]) {
				if err := ctx.Send(w, int64(1)); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *datampi.Context) error {
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				mu.Lock()
				counts[string(g.Key)] = len(g.Values)
				mu.Unlock()
			}
		},
	}
	if _, err := datampi.Run(job); err != nil {
		panic(err)
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		fmt.Printf("%s %d\n", w, counts[w])
	}
	// Output:
	// datampi 1
	// hello 2
	// world 2
}

// ExampleRunContext bounds a job with a context: when the deadline (or a
// cancel) fires, the run aborts cleanly and the returned error unwraps to
// the context's error through the *datampi.RunError wrapper.
func ExampleRunContext() {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	job := &datampi.Job{
		Mode: datampi.MapReduce,
		NumO: 2,
		NumA: 1,
		OTask: func(c *datampi.Context) error {
			for i := 0; ; i++ { // emits forever: only the deadline stops it
				if err := c.Send(fmt.Sprintf("key-%d", i%10), "v"); err != nil {
					return err
				}
			}
		},
		ATask: func(c *datampi.Context) error {
			for {
				if _, ok, err := c.NextGroup(); err != nil {
					return err
				} else if !ok {
					return nil
				}
			}
		},
	}
	_, err := datampi.RunContext(ctx, job)
	fmt.Println("deadline exceeded:", errors.Is(err, context.DeadlineExceeded))

	var re *datampi.RunError
	if errors.As(err, &re) {
		fmt.Println("failed phase:", re.Phase)
	}
	// Output:
	// deadline exceeded: true
	// failed phase: run
}

// ExampleWithCounters opts in to the built-in runtime counters — shuffle
// volume, combine and spill traffic.
func ExampleWithCounters() {
	job := &datampi.Job{
		Mode: datampi.MapReduce,
		Conf: datampi.Config{ValueCodec: datampi.Int64Codec},
		NumO: 2,
		NumA: 1,
		OTask: func(c *datampi.Context) error {
			for i := 0; i < 50; i++ {
				if err := c.Send(fmt.Sprintf("key-%d", i%7), int64(i)); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(c *datampi.Context) error {
			for {
				if _, ok, err := c.NextGroup(); err != nil {
					return err
				} else if !ok {
					return nil
				}
			}
		},
	}
	res, err := datampi.Run(job,
		datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportMem}),
		datampi.WithCounters(),
		datampi.WithTrace(io.Discard),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("records sent:", res.RuntimeCounters["shuffle.records.sent"])
	fmt.Println("records received:", res.RuntimeCounters["shuffle.records.received"])
	// Output:
	// records sent: 100
	// records received: 100
}

// ExampleContext_SendValue streams a value far larger than the chunk
// threshold through the shuffle without ever materializing it: the O side
// reads it chunk-by-chunk from any io.Reader of known length, the
// transport carries sequenced continuation frames, and the A side streams
// it back out of a disk-backed store through Group.ValueReader — peak
// memory stays O(chunk size) on both sides no matter how large the value.
func ExampleContext_SendValue() {
	const valueLen = 64 << 10
	job := &datampi.Job{
		Mode: datampi.MapReduce,
		NumO: 1,
		NumA: 1,
		OTask: func(c *datampi.Context) error {
			// Any reader works: a file, a network stream — here an
			// in-memory pattern standing in for a large attachment.
			value := bytes.NewReader(bytes.Repeat([]byte("v"), valueLen))
			return c.SendValue([]byte("clip-0001"), value, valueLen)
		},
		ATask: func(c *datampi.Context) error {
			for {
				g, ok, err := c.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				r, err := g.ValueReader(0)
				if err != nil {
					return err
				}
				n, err := io.Copy(io.Discard, r)
				if err != nil {
					return err
				}
				fmt.Printf("%s: %d bytes\n", g.Key, n)
			}
		},
	}
	// A 4 KiB chunk threshold makes this small example really chunk;
	// production runs usually keep the 4 MiB default.
	job.Conf.ChunkBytes = 4096
	if _, err := datampi.Run(job); err != nil {
		panic(err)
	}
	// Output:
	// clip-0001: 65536 bytes
}

// ExampleWithTransport runs a job over TCP loopback sockets. The
// progress engine under the transport has one job setting, the chunk
// threshold on Config.
func ExampleWithTransport() {
	job := &datampi.Job{
		Mode: datampi.MapReduce,
		Conf: datampi.Config{ChunkBytes: 1 << 20},
		NumO: 2,
		NumA: 1,
		OTask: func(c *datampi.Context) error {
			return c.Send("k", "v")
		},
		ATask: func(c *datampi.Context) error {
			for {
				if _, ok, err := c.NextGroup(); err != nil {
					return err
				} else if !ok {
					return nil
				}
			}
		},
	}
	_, err := datampi.Run(job, datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportTCP}))
	fmt.Println("err:", err)
	// Output:
	// err: <nil>
}

func splitWords(s string) []string {
	var out []string
	word := ""
	for _, r := range s {
		if r == ' ' {
			if word != "" {
				out = append(out, word)
			}
			word = ""
			continue
		}
		word += string(r)
	}
	if word != "" {
		out = append(out, word)
	}
	return out
}
