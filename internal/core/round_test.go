package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datampi/internal/fault"
	"datampi/internal/mpi"
)

// The master's schedule driven event by event, with no world and no
// processes: a Runtime holding only the scheduler's state, stubbed
// restart steps and a fake clock. Each case is an event sequence, the
// control messages each event must produce, and the final state.

type roundStep struct {
	ev    eventMsg
	after time.Duration // clock advance before the event
	want  string        // the messages sent, "; "-joined (see fmtSends)
}

func oDone(t, p int) roundStep { return roundStep{ev: eventMsg{Type: "oDone", Task: t, Proc: p}} }
func aDone(t, p int) roundStep { return roundStep{ev: eventMsg{Type: "aDone", Task: t, Proc: p}} }
func died(p int) roundStep     { return roundStep{ev: eventMsg{Type: evRankDead, Proc: p}} }
func rejoined(p int) roundStep { return roundStep{ev: eventMsg{Type: "rejoinDone", Proc: p}} }
func replayed(p int) roundStep { return roundStep{ev: eventMsg{Type: "replayDone", Proc: p}} }
func reloaded(p int) roundStep {
	return roundStep{ev: eventMsg{Type: "reloadDone", Proc: p, Records: 10}}
}
func bye(p int) roundStep            { return roundStep{ev: eventMsg{Type: "bye", Proc: p}} }
func tick(d time.Duration) roundStep { return roundStep{ev: eventMsg{Type: evTick}, after: d} }

func (s roundStep) sends(want string) roundStep { s.want = want; return s }

// fmtSends renders control messages compactly: "type>dst" plus the task,
// skip, rank, replay owner and paths where the type carries them.
func fmtSends(out []ctrlSend) string {
	var parts []string
	for _, s := range out {
		m := s.msg
		str := fmt.Sprintf("%s>%d", m.Type, s.to)
		switch m.Type {
		case "runO", "runA":
			str += fmt.Sprintf(" t%d", m.Task)
			if m.Skip > 0 {
				str += fmt.Sprintf(" skip%d", m.Skip)
			}
		case "reload":
			str += " " + strings.Join(m.Paths, ",")
		case "rejoin":
			str += fmt.Sprintf(" rank%d", m.Rank)
		case "replay":
			str += fmt.Sprintf(" owner%d [%s]", m.ReplayOwner, strings.Join(m.Paths, ","))
		}
		parts = append(parts, str)
	}
	return strings.Join(parts, "; ")
}

// testRound builds the schedule of numO O tasks and numA A tasks on 3
// processes with one slot each, with partial restart on outside Iteration
// mode; chunks is what every committed-chunk scan finds.
func testRound(t *testing.T, mode Mode, numO, numA int, ioTimeout time.Duration,
	chunks []cpChunk) (*round, *[]int) {
	t.Helper()
	j := &Job{Mode: mode, NumO: numO, NumA: numA, Procs: 3, Slots: 1,
		OTask: func(*Context) error { return nil }, ATask: func(*Context) error { return nil }}
	j.Conf.FaultTolerance = true
	j.Conf.CheckpointDir = t.TempDir()
	j.Conf.PartialRestart = mode != Iteration
	j.Conf.IOTimeout = ioTimeout
	if err := j.validate(); err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(j)
	t.Cleanup(rt.abortCancel)
	rt.distMaster = true
	rt.rcfg.respawn = func(int) (string, error) { return "", nil }
	rt.ctrs = newRuntimeCounters(j.Procs)
	r := newRound(rt, nil, time.Unix(0, 0))
	clock := time.Unix(100, 0)
	r.now = func() time.Time { return clock }
	var replaced []int
	r.steps = restartSteps{
		replace: func(rank int) (string, error) {
			replaced = append(replaced, rank)
			return fmt.Sprintf("addr%d", rank), nil
		},
		scan: func(lost func(int) bool) ([]cpChunk, error) {
			out := append([]cpChunk(nil), chunks...)
			for i := range out {
				if !lost(out[i].task) {
					out[i].records = 0
				}
			}
			return out, nil
		},
	}
	return r, &replaced
}

// drive feeds the steps to the round, checking each step's messages, and
// returns the first error.
func drive(t *testing.T, r *round, begin string, steps []roundStep) error {
	t.Helper()
	r.begin()
	out, err := r.handle(eventMsg{Type: evTick})
	if got := fmtSends(out); got != begin || err != nil {
		t.Fatalf("begin: sent %q, %v; want %q", got, err, begin)
	}
	for i, s := range steps {
		now := r.now().Add(s.after)
		r.now = func() time.Time { return now }
		out, err := r.handle(s.ev)
		if err != nil {
			if i != len(steps)-1 {
				t.Fatalf("step %d (%s from %d): %v", i, s.ev.Type, s.ev.Proc, err)
			}
			return err
		}
		if got := fmtSends(out); got != s.want {
			t.Fatalf("step %d (%s t%d from %d): sent\n\t%q\nwant\n\t%q", i, s.ev.Type, s.ev.Task, s.ev.Proc, got, s.want)
		}
	}
	return nil
}

// Three O tasks start on the three ranks; t3 waits for a slot.
const batchStart = "runO>0 t0; runO>1 t1; runO>2 t2"

// Rank 1 holds O task 1; its committed chunk c1 (40 records) replays
// unfiltered, the survivors' c0 and c2 only for rank 1's partitions.
var restartChunks = []cpChunk{
	{task: 0, seq: 0, path: "c0", records: 30},
	{task: 1, seq: 0, path: "c1", records: 40},
	{task: 2, seq: 0, path: "c2", records: 50},
}

const (
	rejoinSent = "rejoin>0 rank1; rejoin>2 rank1"
	replaySent = "replay>1 owner-1 [c1]; replay>1 owner1 [c0,c2]"
)

func TestRoundRecovery(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		numA  int
		prep  func(r *round)
		begin string
		steps []roundStep
		// err, when set, is what the last step must fail with.
		err   func(err error) bool
		check func(t *testing.T, r *round)
	}{
		{
			name:  "rankDead during replaying is fatal",
			begin: batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				rejoined(0),
				rejoined(2).sends(replaySent),
				died(1),
			},
			err: func(err error) bool {
				var re *RunError
				return errors.As(err, &re) && re.Rank == 1 && errors.Is(err, mpi.ErrRankDead) &&
					strings.Contains(err.Error(), "died while replaying")
			},
		},
		{
			name:  "second death mid-recovery is fatal",
			begin: batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				rejoined(0),
				died(2),
			},
			err: func(err error) bool {
				var re *RunError
				return errors.As(err, &re) && re.Rank == 2 && errors.Is(err, mpi.ErrRankDead) &&
					strings.Contains(err.Error(), "died while rejoining")
			},
		},
		{
			// The dead incarnation reported t1 done before it died; the
			// report arrives after the rejoin was sent, and again during the
			// replay. Both are dropped: t1 re-runs from its checkpoint cut,
			// and its freed slot takes no pending task while rank 1 replays.
			name:  "dead task's oDone arrives late, after the rejoin",
			begin: batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				oDone(1, 1),
				rejoined(0),
				rejoined(2).sends(replaySent),
				oDone(1, 1),
				replayed(1),
				replayed(1).sends("runO>1 t1 skip40"),
				oDone(1, 1).sends("runO>1 t3"),
				oDone(0, 0),
				oDone(2, 2),
				oDone(3, 1).sends("endO>0; endO>1; endO>2; runA>0 t0; runA>1 t1; runA>2 t2"),
			},
			check: func(t *testing.T, r *round) {
				if r.oDone != 4 || r.rt.res.OTaskSent[1] != 40 || r.rt.ctrs.partialRestarts.Load() != 1 {
					t.Fatalf("oDone %d, OTaskSent[1] %d, restarts %d", r.oDone, r.rt.res.OTaskSent[1],
						r.rt.ctrs.partialRestarts.Load())
				}
			},
		},
		{
			// t3 prefers rank 1, whose slot is free while it rejoins: the
			// survivor's freed slot takes t3 instead.
			name:  "survivor's oDone during rejoining",
			prep:  func(r *round) { copy(r.prefProc, []int{0, 1, 2, 1}) },
			begin: batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				oDone(0, 0).sends("runO>0 t3"),
				rejoined(0),
				rejoined(2).sends(replaySent),
				oDone(3, 0),
				replayed(1),
				replayed(1).sends("runO>1 t1 skip40"),
			},
			check: func(t *testing.T, r *round) {
				if r.phase != running || r.down != -1 || r.oDone != 2 || r.rt.assignO[3] != 0 {
					t.Fatalf("phase %v down %d oDone %d t3 on %d", r.phase, r.down, r.oDone, r.rt.assignO[3])
				}
			},
		},
		{
			// Streaming: A tasks run from the start, next to the O tasks. The
			// dead rank's A task 1 finished before the death; its aDone lands
			// during the rejoin, so the requeue leaves it out, while a
			// survivor's aDone frees a slot that nothing pending takes.
			name:  "streaming A task finishes during the requeue",
			mode:  Streaming,
			numA:  3,
			begin: "runA>0 t0; runA>1 t1; runA>2 t2; " + batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				aDone(1, 1),
				aDone(0, 0),
				rejoined(0),
				rejoined(2).sends(replaySent),
				replayed(1),
				replayed(1).sends("runO>1 t1 skip40"),
			},
			check: func(t *testing.T, r *round) {
				if r.aDone != 2 || r.aState[1] != taskDone || r.slotsA[1] != 1 {
					t.Fatalf("aDone %d, A1 state %d, rank 1 A slots %d", r.aDone, r.aState[1], r.slotsA[1])
				}
			},
		},
		{
			name:  "streaming requeues the dead rank's running A task before the replay",
			mode:  Streaming,
			numA:  3,
			begin: "runA>0 t0; runA>1 t1; runA>2 t2; " + batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				rejoined(0),
				rejoined(2).sends("runA>1 t1; " + replaySent),
			},
		},
		{
			// Streaming reload: rank 1 owes a reloadDone when it dies, and
			// its chunk r1 replays in full instead, so endO waits only for
			// the survivors' reloads. Rank 0's lands during the rejoin.
			name: "reloadDone during rejoining",
			mode: Streaming,
			numA: 3,
			prep: func(r *round) { r.reload = [][]string{{"r0"}, {"r1"}, {"r2"}} },
			begin: "runA>0 t0; runA>1 t1; runA>2 t2; reload>0 r0; reload>1 r1; reload>2 r2; " +
				batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				reloaded(0),
				rejoined(0),
				rejoined(2).sends("runA>1 t1; replay>1 owner-1 [c1]; replay>1 owner1 [c0,c2]"),
				replayed(1),
				replayed(1).sends("runO>1 t1 skip40"),
				oDone(0, 0).sends("runO>0 t3"),
				oDone(1, 1),
				oDone(2, 2),
				oDone(3, 0),
				reloaded(1), // the dead incarnation's, stale
				reloaded(2).sends("endO>0; endO>1; endO>2"),
			},
			check: func(t *testing.T, r *round) {
				if got := r.rt.res.RecordsReloaded; got != 20 {
					t.Fatalf("RecordsReloaded %d, want 20 (ranks 0 and 2)", got)
				}
			},
		},
		{
			name:  "reloaded chunk of the dead rank replays in full",
			mode:  Streaming,
			numA:  3,
			prep:  func(r *round) { r.reload = [][]string{{"c0"}, {"c2"}, nil} },
			begin: "runA>0 t0; runA>1 t1; runA>2 t2; reload>0 c0; reload>1 c2; " + batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				rejoined(0),
				rejoined(2).sends("runA>1 t1; replay>1 owner-1 [c1,c2]; replay>1 owner1 [c0]"),
			},
		},
		{
			// IOTimeout 100ms: control replies may stall for 1s.
			name:  "lost replayDone fails at the deadline",
			begin: batchStart,
			steps: []roundStep{
				died(1).sends(rejoinSent),
				rejoined(0),
				rejoined(2).sends(replaySent),
				tick(600 * time.Millisecond),
				replayed(1),
				oDone(0, 0).sends("runO>0 t3"), // task completions are no progress
				tick(600 * time.Millisecond),
				tick(399 * time.Millisecond),
				tick(1 * time.Millisecond),
			},
			err: func(err error) bool {
				var re *RunError
				return errors.As(err, &re) && re.Phase == "run" && errors.Is(err, mpi.ErrTimeout) &&
					strings.Contains(err.Error(), "replaying: still awaiting 1 replayDone from worker 1 after 1s") &&
					strings.Contains(err.Error(), "worker 0 1s ago, worker 1 1s ago, worker 2 1.6s ago")
			},
		},
		{
			name:  "death after endO is fatal",
			begin: batchStart,
			steps: []roundStep{
				oDone(0, 0).sends("runO>0 t3"),
				oDone(1, 1),
				oDone(2, 2),
				oDone(3, 0).sends("endO>0; endO>1; endO>2; runA>0 t0; runA>1 t1; runA>2 t2"),
				died(1),
			},
			err: func(err error) bool {
				return errors.Is(err, mpi.ErrRankDead) && strings.Contains(err.Error(), "died while running")
			},
		},
		{
			name:  "batch reload finishes before the first O dispatch",
			prep:  func(r *round) { r.reload = [][]string{{"r0"}, nil, {"r2"}} },
			begin: "reload>0 r0; reload>2 r2",
			steps: []roundStep{
				reloaded(2),
				tick(5 * time.Second), // no IOTimeout: no deadline
				reloaded(0).sends(batchStart),
				oDone(0, 0).sends("runO>0 t3"),
			},
			check: func(t *testing.T, r *round) {
				if r.rt.res.ReloadTime != 105*time.Second || r.rt.res.RecordsReloaded != 20 {
					t.Fatalf("ReloadTime %v RecordsReloaded %d", r.rt.res.ReloadTime, r.rt.res.RecordsReloaded)
				}
			},
		},
		{
			name:  "stray control reply is an error",
			begin: batchStart,
			steps: []roundStep{replayed(1)},
			err: func(err error) bool {
				return strings.Contains(err.Error(), `unexpected event "replayDone" from worker 1 while running`)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			numA := c.numA
			if numA == 0 {
				numA = 3
			}
			timeout := time.Duration(0)
			if c.err != nil {
				timeout = 100 * time.Millisecond
			}
			r, replaced := testRound(t, c.mode, 4, numA, timeout, restartChunks)
			if c.prep != nil {
				c.prep(r)
			}
			err := drive(t, r, c.begin, c.steps)
			switch {
			case c.err == nil && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.err != nil && (err == nil || !c.err(err)):
				t.Fatalf("last step: got error %v", err)
			}
			if r.respawns > 0 && (len(*replaced) != 1 || (*replaced)[0] != 1) {
				t.Fatalf("replaced ranks %v, want [1]", *replaced)
			}
			if c.check != nil {
				c.check(t, r)
			}
		})
	}
}

// The end of a job: the last round's completions send shutdown, and the
// byes' counters fold in — sums add, the credit high-water mark takes the
// larger worker's value.
func TestRoundByesFoldCounters(t *testing.T) {
	r, _ := testRound(t, MapReduce, 3, 3, 0, nil)
	byeWith := func(p int, hw, sent int64) roundStep {
		s := bye(p)
		s.ev.RuntimeCounters = map[string]int64{"stream.credits.max.outstanding": hw, "shuffle.records.sent": sent}
		return s
	}
	err := drive(t, r, batchStart, []roundStep{
		oDone(0, 0), oDone(1, 1),
		oDone(2, 2).sends("endO>0; endO>1; endO>2; runA>0 t0; runA>1 t1; runA>2 t2"),
		aDone(0, 0), aDone(1, 1),
		aDone(2, 2).sends("shutdown>0; shutdown>1; shutdown>2"),
		oDone(0, 0), // straggler while ending: dropped
		byeWith(0, 4096, 10),
		byeWith(1, 3000, 5),
		bye(2),
	})
	if err != nil || r.phase != finished {
		t.Fatalf("phase %v, err %v", r.phase, err)
	}
	if got := r.rt.distCtrs; got["stream.credits.max.outstanding"] != 4096 || got["shuffle.records.sent"] != 15 {
		t.Fatalf("folded byes: %v", got)
	}
	res := map[string]int64{"stream.credits.max.outstanding": 100, "shuffle.records.sent": 1}
	foldCounters(res, r.rt.distCtrs)
	if res["stream.credits.max.outstanding"] != 4096 || res["shuffle.records.sent"] != 16 {
		t.Fatalf("folded into the master's counters: %v", res)
	}
}

// Iteration rounds close the previous reverse exchange and reuse each O
// task's process.
func TestRoundIterationReusesBindings(t *testing.T) {
	r, _ := testRound(t, Iteration, 3, 3, 0, nil)
	r.job.Rounds = 2
	err := drive(t, r, batchStart, []roundStep{
		oDone(0, 0), oDone(1, 1),
		oDone(2, 2).sends("endO>0; endO>1; endO>2; runA>0 t0; runA>1 t1; runA>2 t2"),
		aDone(0, 0), aDone(1, 1),
		aDone(2, 2).sends("endRev>0; endRev>1; endRev>2; " + batchStart),
	})
	if err != nil || r.r != 1 || len(r.rt.res.RoundTimes) != 1 {
		t.Fatalf("round %d, times %v, err %v", r.r, r.rt.res.RoundTimes, err)
	}
}

// A control send that finds its target dead skips the rest of the batch to
// that rank, still reaches the others, and names the rank for the rankDead
// transition; a second dead rank in the same batch is an error.
func TestRoundSendAllSkipsDeadRank(t *testing.T) {
	inj := fault.NewInjector(nil)
	w, err := mpi.NewWorld(4, mpi.WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ics, err := mpi.NewIntercomm(w, []int{3}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := &Runtime{masterIC: ics[3]}
	runO := func(task, p int) ctrlSend { return ctrlSend{p, ctrlMsg{Type: "runO", Task: task}} }
	inj.Kill(1)
	dead, err := rt.sendAll([]ctrlSend{runO(0, 0), runO(1, 1), runO(2, 2), runO(3, 1)})
	if dead != 1 || err != nil {
		t.Fatalf("sendAll = %d, %v; want rank 1 dead and no error", dead, err)
	}
	for _, p := range []int{0, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		b, _, err := ics[p].RecvContext(ctx, 0, tagCtrl)
		cancel()
		var m ctrlMsg
		if err == nil {
			err = json.Unmarshal(b, &m)
		}
		if err != nil || m.Task != p {
			t.Fatalf("rank %d got %+v, %v; want its runO", p, m, err)
		}
	}
	inj.Kill(2)
	if _, err := rt.sendAll([]ctrlSend{runO(1, 1), runO(2, 2)}); !errors.Is(err, mpi.ErrRankDead) {
		t.Fatalf("second dead rank: %v, want ErrRankDead", err)
	}
}
