package mpi

import "context"

// Intercomm is a simplified intercommunicator: a channel between two
// disjoint groups (the paper's mpidrun <-> worker link, Fig. 4). A rank in
// one group addresses ranks of the remote group.
type Intercomm struct {
	local *Comm // communicator over localGroup ∪ remoteGroup
	split int   // ranks [0,split) are group L, [split,n) are group R
	inL   bool  // whether this process is in group L
}

// NewIntercomm builds, over the world, an intercommunicator between
// groupL and groupR (disjoint world-rank lists). It returns per-world-rank
// handles (nil for non-members).
func NewIntercomm(w *World, groupL, groupR []int) ([]*Intercomm, error) {
	all := append(append([]int(nil), groupL...), groupR...)
	comms, err := w.NewComm(all)
	if err != nil {
		return nil, err
	}
	out := make([]*Intercomm, w.Size())
	for _, wr := range groupL {
		out[wr] = &Intercomm{local: comms[wr], split: len(groupL), inL: true}
	}
	for _, wr := range groupR {
		out[wr] = &Intercomm{local: comms[wr], split: len(groupL), inL: false}
	}
	return out, nil
}

// RemoteSize returns the size of the remote group.
func (ic *Intercomm) RemoteSize() int {
	if ic.inL {
		return ic.local.Size() - ic.split
	}
	return ic.split
}

func (ic *Intercomm) remoteToFlat(r int) int {
	if ic.inL {
		return ic.split + r
	}
	return r
}

// Send sends to rank dst of the remote group.
func (ic *Intercomm) Send(dst, tag int, data []byte) error {
	return ic.local.Send(ic.remoteToFlat(dst), tag, data)
}

// Recv receives from rank src of the remote group (AnySource allowed).
func (ic *Intercomm) Recv(src, tag int) ([]byte, Status, error) {
	return ic.RecvContext(context.Background(), src, tag)
}

// RecvContext is Recv bounded by a context (see Comm.RecvContext): it
// fails with an error wrapping ErrTimeout once ctx is done, so a process
// waiting on a dead remote group member cannot hang forever.
func (ic *Intercomm) RecvContext(ctx context.Context, src, tag int) ([]byte, Status, error) {
	flat := src
	if src != AnySource {
		flat = ic.remoteToFlat(src)
	}
	for {
		data, st, err := ic.local.RecvContext(ctx, flat, tag)
		if err != nil {
			return nil, st, err
		}
		// With AnySource, discard messages from our own group: an
		// intercommunicator only carries inter-group traffic.
		if src == AnySource {
			fromRemote := (ic.inL && st.Source >= ic.split) || (!ic.inL && st.Source < ic.split)
			if !fromRemote {
				continue
			}
		}
		if st.Source >= ic.split {
			st.Source -= ic.split
		}
		return data, st, nil
	}
}
