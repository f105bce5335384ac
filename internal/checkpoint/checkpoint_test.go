package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"accelwall/internal/faultinject"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestOpenCreatesDirWithPerms(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := os.Stat(dir)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if got := st.Mode().Perm(); got != DirPerm {
		t.Errorf("dir perms = %o, want %o", got, DirPerm)
	}
	if err := s.Write("x", []byte("payload")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	fst, err := os.Stat(s.Path("x"))
	if err != nil {
		t.Fatalf("stat file: %v", err)
	}
	if got := fst.Mode().Perm(); got != FilePerm {
		t.Errorf("file perms = %o, want %o", got, FilePerm)
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	// Tests run as root, so permission bits don't refuse anything; a path
	// whose parent is a regular file (ENOTDIR) does, for any uid.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(blocker, "sub")); err == nil {
		t.Fatal("Open under a regular file succeeded, want error")
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded, want error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := openStore(t)
	want := []byte("snapshot payload \x00\xff")
	if err := s.Write("run", want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := s.ReadLast("run")
	if err != nil {
		t.Fatalf("ReadLast: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ReadLast = %q, want %q", got, want)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	s := openStore(t)
	if err := s.Write("run", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("run", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadLast("run")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Errorf("ReadLast = %q, want %q", got, "new")
	}
}

func TestReadLastMissing(t *testing.T) {
	s := openStore(t)
	if _, err := s.ReadLast("nope"); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("ReadLast(missing) = %v, want ErrNoSnapshot", err)
	}
}

func TestListAndRemove(t *testing.T) {
	s := openStore(t)
	for _, n := range []string{"b", "a", "c"} {
		if err := s.Write(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file and a subdirectory must not be listed.
	os.WriteFile(filepath.Join(s.Dir(), "a.ckpt.tmp"), []byte("x"), 0o600)
	os.Mkdir(filepath.Join(s.Dir(), "d.ckpt"), 0o700)
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("b"); err != nil {
		t.Errorf("second Remove not idempotent: %v", err)
	}
	if _, err := s.ReadLast("b"); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("removed log still readable: %v", err)
	}
	// Remove also sweeps the stray temp file beside the log.
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "a.ckpt.tmp")); !os.IsNotExist(err) {
		t.Errorf("stray temp file survived Remove: %v", err)
	}
	// One directory fsync covers every log a call removes; a call that
	// removes nothing pays none.
	if err := s.Write("e", []byte("e")); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1).Set(faultinject.SiteFSSync, faultinject.Rule{})
	faultinject.Enable(inj)
	defer faultinject.Disable()
	if err := s.Remove("c", "b", "e"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("c", "e"); err != nil {
		t.Fatal(err)
	}
	if n := inj.Hits(faultinject.SiteFSSync); n != 1 {
		t.Errorf("Remove fsynced the directory %d times, want 1", n)
	}
	if names, err := s.List(); err != nil || len(names) != 0 {
		t.Errorf("List after removing every log = %v, %v", names, err)
	}
}

func TestLogAppendsAndReadsNewest(t *testing.T) {
	s := openStore(t)
	l, err := s.OpenLog("run")
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Save([]byte(fmt.Sprintf("snap-%d", i))); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadLast("run")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "snap-4" {
		t.Errorf("ReadLast = %q, want snap-4", got)
	}
	// Reopening appends after the existing records.
	l2, err := s.OpenLog("run")
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Save([]byte("snap-5")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got, err = s.ReadLast("run")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "snap-5" {
		t.Errorf("after reopen ReadLast = %q, want snap-5", got)
	}
	if err := l2.Save([]byte("after close")); err == nil {
		t.Error("Save on closed log succeeded, want error")
	}
}

func TestLogEmptyIsNoSnapshot(t *testing.T) {
	s := openStore(t)
	l, err := s.OpenLog("run")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := s.ReadLast("run"); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("header-only log: ReadLast = %v, want ErrNoSnapshot", err)
	}
}

func TestLogRefusesForeignFile(t *testing.T) {
	s := openStore(t)
	if err := os.WriteFile(s.Path("alien"), []byte("not a checkpoint log"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenLog("alien"); !errors.Is(err, ErrBadMagic) {
		t.Errorf("OpenLog on foreign file = %v, want ErrBadMagic", err)
	}
}

func TestLogCompaction(t *testing.T) {
	s := openStore(t)
	l, err := s.OpenLog("run")
	if err != nil {
		t.Fatal(err)
	}
	l.maxBytes = 256 // force compaction quickly
	payload := bytes.Repeat([]byte("p"), 100)
	for i := 0; i < 10; i++ {
		p := append([]byte(fmt.Sprintf("%02d-", i)), payload...)
		if err := l.Save(p); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	st, err := os.Stat(s.Path("run"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 512 {
		t.Errorf("log never compacted: size %d", st.Size())
	}
	got, err := s.ReadLast("run")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != "09-" {
		t.Errorf("newest record after compaction = %q...", got[:3])
	}
	l.Close()
}

// decode-table tests: every named corruption decodes to its cause, never a
// panic, and a torn or corrupt tail falls back to the last good record.
func TestDecodeLastCorruption(t *testing.T) {
	frame := func(payload string) []byte { return appendFrame(nil, []byte(payload)) }
	header := appendHeader(nil)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	staleVersion := cat(header, frame("ok"))
	binary.LittleEndian.PutUint16(staleVersion[6:8], version+1)

	flippedCRC := cat(header, frame("good"), frame("bad"))
	flippedCRC[len(flippedCRC)-len("bad")-1] ^= 0xff // corrupt second record's CRC byte

	flippedPayload := cat(header, frame("good"), frame("bad"))
	flippedPayload[len(flippedPayload)-1] ^= 0x01 // corrupt second record's payload

	absurdLen := cat(header, frame("good"))
	absurd := make([]byte, frameLen)
	binary.LittleEndian.PutUint32(absurd[:4], maxRecordBytes+1)
	absurdLen = append(absurdLen, absurd...)

	cases := []struct {
		name    string
		raw     []byte
		want    string // expected payload, "" when expecting an error
		wantErr error
	}{
		{"empty file", nil, "", ErrNoSnapshot},
		{"short header", []byte("AWC"), "", ErrBadMagic},
		{"bad magic", cat([]byte("NOTCKPT!"), frame("x")), "", ErrBadMagic},
		{"stale version header", staleVersion, "", ErrVersion},
		{"header only", header, "", ErrNoSnapshot},
		{"single intact record", cat(header, frame("only")), "only", nil},
		{"truncated tail falls back", cat(header, frame("good"), frame("torn")[:5]), "good", nil},
		{"truncated frame header falls back", cat(header, frame("good"), []byte{1, 2, 3}), "good", nil},
		{"flipped CRC byte falls back", flippedCRC, "good", nil},
		{"flipped payload byte falls back", flippedPayload, "good", nil},
		{"absurd length field falls back", absurdLen, "good", nil},
		{"first record corrupt", func() []byte {
			b := cat(header, frame("solo"))
			b[len(b)-1] ^= 0x01
			return b
		}(), "", ErrCorrupt},
		{"records after corrupt one are suspect", func() []byte {
			b := cat(header, frame("first"), frame("second"))
			b[headerLen+frameLen] ^= 0x01 // corrupt FIRST payload
			return b
		}(), "", ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeLast(tc.raw)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("DecodeLast = (%q, %v), want error %v", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("DecodeLast: %v", err)
			}
			if string(got) != tc.want {
				t.Fatalf("DecodeLast = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestReadLastFallsBackAcrossTornAppend(t *testing.T) {
	s := openStore(t)
	l, err := s.OpenLog("run")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a crash mid-append: half a frame lands at the tail.
	f, err := os.OpenFile(s.Path("run"), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendFrame(nil, []byte("never finished"))
	f.Write(torn[:len(torn)/2])
	f.Close()
	got, err := s.ReadLast("run")
	if err != nil {
		t.Fatalf("ReadLast over torn tail: %v", err)
	}
	if string(got) != "durable" {
		t.Errorf("ReadLast = %q, want %q", got, "durable")
	}
	// And the log reopens for appending: the next Save supersedes the tear.
	l2, err := s.OpenLog("run")
	if err != nil {
		t.Fatalf("OpenLog over torn tail: %v", err)
	}
	if err := l2.Save([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	// The torn bytes still sit mid-file, so the reader stops at them; the
	// guarantee is "newest intact record at or before the tear", which is
	// still the durable one. A compaction or fresh Write clears the tear.
	got, err = s.ReadLast("run")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Errorf("ReadLast after tear+append = %q, want %q (reader stops at tear)", got, "durable")
	}
}

func TestWriteCrashBeforeRenameKeepsOldFile(t *testing.T) {
	s := openStore(t)
	if err := s.Write("run", []byte("old")); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1).Set(faultinject.SiteFSRename, faultinject.Rule{Mode: faultinject.ModeError, Every: 1})
	faultinject.Enable(inj)
	err := s.Write("run", []byte("new"))
	faultinject.Disable()
	if err == nil {
		t.Fatal("Write with failing rename succeeded")
	}
	got, readErr := s.ReadLast("run")
	if readErr != nil {
		t.Fatalf("ReadLast after failed commit: %v", readErr)
	}
	if string(got) != "old" {
		t.Errorf("ReadLast = %q, want old file intact", got)
	}
	// After the fault clears, the same Write lands.
	if err := s.Write("run", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ReadLast("run")
	if string(got) != "new" {
		t.Errorf("ReadLast = %q, want %q", got, "new")
	}
}

func TestWriteAndSaveSurfaceInjectedIOErrors(t *testing.T) {
	for _, site := range []string{faultinject.SiteFSWrite, faultinject.SiteFSSync} {
		t.Run(site, func(t *testing.T) {
			s := openStore(t)
			l, err := s.OpenLog("run")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Save([]byte("before")); err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(2).Set(site, faultinject.Rule{Mode: faultinject.ModeError, Every: 1})
			faultinject.Enable(inj)
			saveErr := l.Save([]byte("during"))
			writeErr := s.Write("other", []byte("x"))
			faultinject.Disable()
			if !errors.Is(saveErr, faultinject.ErrInjected) {
				t.Errorf("Log.Save under %s = %v, want ErrInjected", site, saveErr)
			}
			if !errors.Is(writeErr, faultinject.ErrInjected) {
				t.Errorf("Store.Write under %s = %v, want ErrInjected", site, writeErr)
			}
			// The log survives: the prior record stays intact. (A failed
			// fsync may still leave "during" visible — the error only
			// withdraws the durability promise, it never corrupts the log.)
			got, err := s.ReadLast("run")
			if err != nil || (string(got) != "before" && string(got) != "during") {
				t.Fatalf("ReadLast after failed Save = (%q, %v), want an intact record", got, err)
			}
			if err := l.Save([]byte("after")); err != nil {
				t.Fatalf("Save after fault cleared: %v", err)
			}
			got, _ = s.ReadLast("run")
			if string(got) != "after" {
				t.Errorf("ReadLast = %q, want after", got)
			}
		})
	}
}
