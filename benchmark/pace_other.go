//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where there is no timerfd; see
// pace_linux.go for why the reference platform does not use it.
type pacer struct{}

func newPacer(time.Duration) (*pacer, error) { return &pacer{}, nil }

func (p *pacer) until(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() {}
