//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes a paced source on a fixed short tick from a timerfd read
// through the netpoller. time.Sleep will not do for an open-loop
// generator at this scale: an otherwise idle Go process parks in
// epoll_wait, whose timeout is whole milliseconds, so a sleeping source
// wakes either ~60 us or ~1 ms late depending on which thread owns the
// poller — two modes per process, 1 ms apart, in a latency of ~5 ms. A
// timerfd becoming readable ends epoll_wait at once, in either mode.
// (Blocking in nanosleep instead would pin the source's P in a syscall
// and starve the runtime under test.)
type pacer struct {
	f   *os.File
	buf [8]byte
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	Interval, Value syscall.Timespec
}

func newPacer(tick time.Duration) (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	spec := itimerspec{Interval: syscall.NsecToTimespec(int64(tick)), Value: syscall.NsecToTimespec(int64(tick))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, os.NewSyscallError("timerfd_settime", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// until blocks, a tick at a time, until t has passed.
func (p *pacer) until(t time.Time) error {
	for time.Until(t) > 0 {
		if _, err := p.f.Read(p.buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func (p *pacer) close() { p.f.Close() }
