// Degraded-disk durability: when a snapshot write hits ENOSPC (or its
// cousins EIO/EDQUOT), the store does not fail the run. It diverts the
// snapshot into a bounded in-memory ring for that name, marks itself
// degraded, and keeps accepting saves; Flush retries the disk until
// space returns, at which point every diverted snapshot is persisted
// through the atomic-rewrite path (which also repairs any torn tail the
// failed append left behind) and full durability resumes. The engine
// above never notices: results stay byte-identical, the job merely runs
// without crash-durability for the duration of the outage.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"accelwall/internal/faultinject"
)

// stashRingCap bounds the in-memory snapshots kept per name while the
// disk is unavailable; older entries roll off, newest-last.
const stashRingCap = 4

// stashEntry is one name's in-memory snapshot ring. log is non-nil when
// the name is an open append log, so healing routes through the log's
// own handle (a store-level rewrite would strand the log's fd on the
// renamed-over inode).
type stashEntry struct {
	ring [][]byte
	log  *Log
	gen  uint64
}

// IsDiskFull reports whether err is a resource-exhaustion failure the
// degraded-durability path absorbs: no space, quota, or an I/O error
// from a dying device.
func IsDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EIO)
}

// Degraded reports whether the store is running without disk
// durability (snapshots diverted to memory).
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Stashed reports how many names currently hold in-memory snapshots.
func (s *Store) Stashed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stash)
}

// InMemory reports whether name's newest record lives only in the
// in-memory stash, waiting for the disk to take it.
func (s *Store) InMemory(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stash[name] != nil
}

// MemSaves reports how many snapshots have been diverted to memory over
// the store's lifetime.
func (s *Store) MemSaves() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSaves
}

// degradeStash records a snapshot the disk refused: flips the store
// degraded and rings the payload under name. l, when non-nil, owns the
// name's append log and will be used to heal it.
func (s *Store) degradeStash(name string, payload []byte, l *Log) {
	cp := append([]byte(nil), payload...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = true
	e := s.stash[name]
	if e == nil {
		e = &stashEntry{}
		s.stash[name] = e
	}
	if l != nil {
		e.log = l
	}
	e.ring = append(e.ring, cp)
	if len(e.ring) > stashRingCap {
		e.ring = e.ring[len(e.ring)-stashRingCap:]
	}
	e.gen++
	s.memSaves++
}

// dropStash forgets any in-memory snapshots for name (a newer copy
// reached the disk, or the name was removed).
func (s *Store) dropStash(name string) {
	s.mu.Lock()
	delete(s.stash, name)
	s.mu.Unlock()
}

// healName drops name's stash after a successful disk write and clears
// the degraded flag once nothing is left waiting — a real durable write
// is better evidence of disk health than any probe.
func (s *Store) healName(name string) {
	s.mu.Lock()
	delete(s.stash, name)
	if s.degraded && len(s.stash) == 0 {
		s.degraded = false
	}
	s.mu.Unlock()
}

// stashedPayload returns a copy of the newest in-memory snapshot for
// name, if one exists. In-memory copies are always newer than the disk:
// the store only stashes when the disk refused the write.
func (s *Store) stashedPayload(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.stash[name]
	if e == nil || len(e.ring) == 0 {
		return nil, false
	}
	return append([]byte(nil), e.ring[len(e.ring)-1]...), true
}

// Flush retries every in-memory snapshot against the disk. On full
// success (everything persisted, plus a probe write proving the disk is
// genuinely back) the degraded flag clears. On failure the store stays
// degraded and the first error is returned for the caller's retry
// policy. Safe to call concurrently with saves: a snapshot stashed
// while Flush runs survives for the next round.
func (s *Store) Flush() error {
	type item struct {
		name    string
		payload []byte
		log     *Log
		gen     uint64
	}
	s.mu.Lock()
	if !s.degraded {
		s.mu.Unlock()
		return nil
	}
	items := make([]item, 0, len(s.stash))
	for name, e := range s.stash {
		if len(e.ring) == 0 {
			continue
		}
		items = append(items, item{name, e.ring[len(e.ring)-1], e.log, e.gen})
	}
	s.mu.Unlock()

	var firstErr error
	for _, it := range items {
		var err error
		if it.log != nil {
			err = it.log.heal(it.payload)
		} else {
			s.wmu.Lock()
			if p, ok := s.stashedPayload(it.name); ok && bytes.Equal(p, it.payload) {
				err = s.writeDisk(it.name, it.payload) // no newer Write landed meanwhile
			}
			s.wmu.Unlock()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.mu.Lock()
		if e := s.stash[it.name]; e != nil && e.gen == it.gen {
			delete(s.stash, it.name)
		}
		s.mu.Unlock()
	}
	if firstErr != nil {
		return firstErr
	}
	if err := s.probe(); err != nil {
		return err
	}
	s.mu.Lock()
	if len(s.stash) == 0 {
		s.degraded = false
	}
	s.mu.Unlock()
	return nil
}

// probe performs a tiny durable write through the same faultinject
// seams real snapshots use, so the degraded flag only clears when a
// write would actually succeed (injected faults included).
func (s *Store) probe() error {
	path := filepath.Join(s.dir, ".heal.probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, FilePerm)
	if err != nil {
		return fmt.Errorf("checkpoint: heal probe: %w", err)
	}
	if _, err := faultinject.WriteFile(f, []byte("ok")); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("checkpoint: heal probe: %w", err)
	}
	if err := faultinject.SyncFile(f); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("checkpoint: heal probe: %w", err)
	}
	f.Close()
	os.Remove(path)
	return nil
}

// heal persists a stashed snapshot for a log-backed name via the atomic
// rewrite, which repairs any torn tail the failed append left, then
// re-arms the log for normal appends. Called by Flush with no store
// lock held (lock order is always Log.mu before Store.mu).
func (l *Log) heal(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		// The log was closed while degraded (job finished); the stashed
		// snapshot still deserves the disk.
		return l.store.writeDisk(l.name, payload)
	}
	if err := l.compactLocked(payload); err != nil {
		return err
	}
	l.torn = false
	return nil
}
