// Package checkpoint is a crash-safe on-disk store for progress snapshots:
// the durability layer under resumable Monte Carlo runs, sweeps, and the
// server's async jobs. It is built so that a process killed at ANY
// instant — mid-append, mid-fsync, between temp-file write and rename —
// leaves a file the next process can still read the newest intact
// snapshot from.
//
// On-disk format (one file per snapshot log, extension ".ckpt"):
//
//	header:  6-byte magic "AWCKPT" + uint16 LE format version
//	records: repeated [uint32 LE payload length][uint32 LE CRC32C][payload]
//
// A snapshot log is append-only: each Save appends one framed record and
// fsyncs, so the newest record is the newest durable snapshot. Readers
// scan forward and keep the last record whose length fits and whose
// CRC32C (Castagnoli) matches; a torn or corrupt tail — the signature of
// a crash mid-append — is detected and the reader falls back to the last
// good snapshot before it. When a log outgrows its size bound it is
// compacted to just its newest record via the atomic rewrite path
// (temp file + fsync + rename + directory fsync), the same path Write
// uses for a log's first record, such as a job's submit record.
//
// Files are created 0600 and directories 0700: snapshots can embed
// request payloads, which are nobody else's business.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"accelwall/internal/faultinject"
)

// File and directory permission bits for everything the store creates.
const (
	DirPerm  = 0o700
	FilePerm = 0o600
)

// Format constants.
const (
	version   = 1
	headerLen = 8 // 6-byte magic + uint16 version
	frameLen  = 8 // uint32 length + uint32 CRC32C
	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot demand an absurd allocation; anything larger is treated as a
	// corrupt tail.
	maxRecordBytes = 1 << 28
)

var magic = [6]byte{'A', 'W', 'C', 'K', 'P', 'T'}

// castagnoli is the CRC32C table (the polynomial with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Named failure causes. Every decode error wraps exactly one of these so
// callers can branch on the cause (fall back, start cold, or refuse).
var (
	// ErrNoSnapshot: the log does not exist or holds no records yet.
	ErrNoSnapshot = errors.New("checkpoint: no snapshot")
	// ErrBadMagic: the file is not a checkpoint log at all.
	ErrBadMagic = errors.New("checkpoint: bad magic (not a checkpoint file)")
	// ErrVersion: the header declares a format version this build cannot
	// read (a snapshot written by a newer build, or a corrupted header).
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrCorrupt: the log has records but not one of them is intact.
	ErrCorrupt = errors.New("checkpoint: no intact snapshot record")
)

// Sink receives encoded progress snapshots. Engines accept a Sink and
// call Save with an opaque payload at their checkpoint cadence; a nil
// Sink disables checkpointing entirely. Save is never called
// concurrently by one engine run, but must be safe to call from whichever
// worker goroutine happens to trigger the snapshot.
type Sink interface {
	Save(payload []byte) error
}

// IsDiskFull reports whether err is a resource-exhaustion failure that
// may pass once space returns: no space, quota, or an I/O error from a
// dying device.
func IsDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EIO)
}

// Store manages one directory of checkpoint files. The directory is
// created 0700 on Open and probed for writability, so a misconfigured
// path fails at startup instead of at the first snapshot minutes into a
// run.
type Store struct {
	dir string
}

// Open creates (0700) and write-probes dir, returning a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory path")
	}
	if err := os.MkdirAll(dir, DirPerm); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir %s: %w", dir, err)
	}
	probe := filepath.Join(dir, ".probe.tmp")
	f, err := os.OpenFile(probe, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, FilePerm)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: dir %s is not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(probe)
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the on-disk path of a named snapshot log.
func (s *Store) Path(name string) string {
	return filepath.Join(s.dir, name+".ckpt")
}

// List returns the names (without extension) of every checkpoint file in
// the store, sorted.
func (s *Store) List() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".ckpt") {
			names = append(names, strings.TrimSuffix(n, ".ckpt"))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove deletes the named snapshot logs (and any stray temp file a crash
// left beside each). Missing files are not an error: Remove is the "run
// completed, forget the progress" path and must be idempotent. Once at
// least one log is gone, the directory is fsynced once for all of them —
// without it a crash can resurrect a just-forgotten log, and a
// resurrected job log brings an evicted job back. A stray temp file needs
// no fsync: nothing reads one back.
func (s *Store) Remove(names ...string) error {
	var firstErr error
	removed := false
	for _, name := range names {
		os.Remove(s.Path(name) + ".tmp")
		switch err := os.Remove(s.Path(name)); {
		case err == nil:
			removed = true
		case !os.IsNotExist(err) && firstErr == nil:
			firstErr = fmt.Errorf("checkpoint: remove %s: %w", name, err)
		}
	}
	if removed {
		if err := syncDir(s.dir); err != nil && !IsDiskFull(err) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ReadLast returns the newest intact snapshot payload in the named log,
// falling back across any torn or corrupt tail. The error, when non-nil,
// wraps one of the named causes above.
func (s *Store) ReadLast(name string) ([]byte, error) {
	b, err := os.ReadFile(s.Path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoSnapshot
		}
		return nil, fmt.Errorf("checkpoint: read %s: %w", name, err)
	}
	return DecodeLast(b)
}

// Write atomically replaces the named log with one holding only payload:
// temp file (0600) + fsync + rename + directory fsync, the single-record
// path for small atomic state like a job's submit record. A disk that
// refuses the write fails it (IsDiskFull tells the caller it may pass
// later). If the rename never lands (crash, or an injected fs.rename
// fault) the previous file remains untouched and valid.
func (s *Store) Write(name string, payload []byte) error {
	path := s.Path(name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, FilePerm)
	if err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", name, err)
	}
	buf := make([]byte, 0, headerLen+frameLen+len(payload))
	buf = appendHeader(buf)
	buf = appendFrame(buf, payload)
	if _, err := faultinject.WriteFile(f, buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %s: %w", name, err)
	}
	if err := faultinject.SyncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: fsync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close %s: %w", name, err)
	}
	if err := faultinject.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: commit %s: %w", name, err)
	}
	return syncDir(s.dir)
}

// appendHeader appends the file header to buf.
func appendHeader(buf []byte) []byte {
	buf = append(buf, magic[:]...)
	return binary.LittleEndian.AppendUint16(buf, version)
}

// appendFrame appends one CRC32C-framed record to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// FrameLen is the headroom SaveFrame needs in front of a record's
// payload: the frame's length and CRC32C words.
const FrameLen = frameLen

// putFrame writes the frame header of rec's payload, rec[FrameLen:], into
// rec[:FrameLen]: the bytes appendFrame(nil, rec[FrameLen:]) returns.
func putFrame(rec []byte) {
	payload := rec[frameLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
}

// DecodeLast scans a raw checkpoint log and returns the newest intact
// record, implementing the torn/corrupt-tail fallback: scanning stops at
// the first record whose frame is short, whose length is absurd, or whose
// CRC32C mismatches, and the last good record before that point wins.
func DecodeLast(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, ErrNoSnapshot
	}
	if len(b) < headerLen || [6]byte(b[:6]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(b[6:8]); v != version {
		return nil, fmt.Errorf("%w: file declares version %d, this build reads %d", ErrVersion, v, version)
	}
	rest := b[headerLen:]
	var last []byte
	for len(rest) >= frameLen {
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if uint64(n) > maxRecordBytes || len(rest) < frameLen+int(n) {
			break // torn tail
		}
		payload := rest[frameLen : frameLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupt record; everything after it is suspect too
		}
		last = payload
		rest = rest[frameLen+int(n):]
	}
	if last == nil {
		if len(b) == headerLen {
			return nil, ErrNoSnapshot // header-only: a log that never saved
		}
		return nil, ErrCorrupt
	}
	return append([]byte(nil), last...), nil
}

// defaultMaxLogBytes triggers compaction: once a log's appends pass this,
// it is rewritten to just its newest snapshot.
const defaultMaxLogBytes = 4 << 20

// Log is an open append-mode snapshot log. It implements Sink: each Save
// appends one framed record and fsyncs before returning, so a Save that
// returned nil survives any subsequent crash. Safe for concurrent Save
// calls (serialized internally).
type Log struct {
	store *Store
	name  string

	mu       sync.Mutex
	f        *os.File
	size     int64
	maxBytes int64
	// torn is set when an append or its fsync failed: the tail may hold
	// a partial frame, and any record appended after it would be stranded
	// behind the corruption (readers stop at the first bad frame). Once
	// torn, saves go through the atomic rewrite until one lands.
	torn bool
}

// OpenLog opens (creating if absent) the named snapshot log for
// appending. An existing file must carry a valid header — appending
// records to something that is not a checkpoint log would destroy it.
func (s *Store) OpenLog(name string) (*Log, error) {
	path := s.Path(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, FilePerm)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open log %s: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: stat log %s: %w", name, err)
	}
	size := st.Size()
	if size == 0 {
		// A brand-new log must be durable before the first Save relies
		// on it: fsync the header AND the parent directory (the file's
		// dirent is dir state — rename-path writes already sync it, but
		// file creation needs the same treatment or a crash leaves a
		// log that never existed). A failed init removes the file, so a
		// retry initialises it afresh instead of trusting an unsynced
		// header.
		_, err := faultinject.WriteFile(f, appendHeader(nil))
		if err == nil {
			err = faultinject.SyncFile(f)
		}
		if err == nil {
			err = syncDir(s.dir)
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("checkpoint: init log %s: %w", name, err)
		}
		size = headerLen
	} else {
		hdr := make([]byte, headerLen)
		if n, _ := f.ReadAt(hdr, 0); n < headerLen || [6]byte(hdr[:6]) != magic {
			f.Close()
			return nil, fmt.Errorf("%w: %s", ErrBadMagic, path)
		}
		if v := binary.LittleEndian.Uint16(hdr[6:8]); v != version {
			f.Close()
			return nil, fmt.Errorf("%w: %s declares version %d", ErrVersion, path, v)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: seek log %s: %w", name, err)
	}
	return &Log{store: s, name: name, f: f, size: size, maxBytes: defaultMaxLogBytes}, nil
}

// Save appends one snapshot record and fsyncs it durable. Once the log
// outgrows its size bound it is compacted (atomically) to just this
// newest record; a compaction the disk refuses is retried at the next
// Save, since the append is already durable. A failed append or fsync
// returns the error and turns the log torn, so the next Save rewrites it
// atomically to just its payload, dropping the suspect tail. A failure
// never touches the prior records.
func (l *Log) Save(payload []byte) error {
	return l.save(appendFrame(nil, payload))
}

// SaveFrame is Save for a record its caller built with FrameLen bytes of
// headroom, rec[FrameLen:] being the payload: the frame header is written
// into rec[:FrameLen] in place, so the payload is not copied again. The
// bytes on disk are Save(rec[FrameLen:])'s.
func (l *Log) SaveFrame(rec []byte) error {
	putFrame(rec)
	return l.save(rec)
}

// save appends the framed record rec; see Save.
func (l *Log) save(rec []byte) error {
	payload := rec[frameLen:]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("checkpoint: log %s is closed", l.name)
	}
	if l.torn {
		if err := l.compactLocked(payload); err != nil {
			return err
		}
		l.torn = false
		return nil
	}
	if _, err := faultinject.WriteFile(l.f, rec); err != nil {
		l.torn = true
		return fmt.Errorf("checkpoint: append %s: %w", l.name, err)
	}
	l.size += int64(len(rec))
	if err := faultinject.SyncFile(l.f); err != nil {
		l.torn = true
		return fmt.Errorf("checkpoint: fsync %s: %w", l.name, err)
	}
	if l.size > l.maxBytes {
		if err := l.compactLocked(payload); err != nil && !IsDiskFull(err) {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the log to just payload via the atomic rewrite
// and reopens the handle. On failure the grown (still valid) log stays in
// place.
func (l *Log) compactLocked(payload []byte) error {
	if err := l.store.Write(l.name, payload); err != nil {
		return err
	}
	f, err := os.OpenFile(l.store.Path(l.name), os.O_RDWR, FilePerm)
	if err != nil {
		return fmt.Errorf("checkpoint: reopen compacted %s: %w", l.name, err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: seek compacted %s: %w", l.name, err)
	}
	l.f.Close()
	l.f = f
	l.size = int64(headerLen + frameLen + len(payload))
	return nil
}

// Close releases the file handle. Further Saves error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Durable prepares a run over the named log (a nil store: no snapshots).
// With resume it restores the newest intact snapshot, or starts cold when
// there is none (noted through logf, like a failed save or removal). The
// caller defers closeLog and calls finish, which removes the log, on success.
func (s *Store) Durable(name string, resume bool, logf func(format string, args ...any)) (ck *Options, closeLog, finish func(), err error) {
	if s == nil {
		return nil, func() {}, func() {}, nil
	}
	ck = &Options{OnError: func(e error) { logf("checkpointing disabled: %v", e) }}
	if resume {
		switch ck.Resume, err = s.ReadLast(name); {
		case errors.Is(err, ErrNoSnapshot), errors.Is(err, ErrCorrupt):
			logf("no usable snapshot (%v), starting cold", err)
		case err != nil:
			return nil, nil, nil, err
		}
	}
	log, err := s.OpenLog(name)
	if err != nil {
		return nil, nil, nil, err
	}
	ck.Sink, closeLog = log, func() { log.Close() }
	return ck, closeLog, func() {
		closeLog()
		if err := s.Remove(name); err != nil {
			logf("could not remove finished checkpoint: %v", err)
		}
	}, nil
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := faultinject.SyncFile(d); err != nil {
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	return nil
}
