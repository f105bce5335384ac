package checkpoint

import (
	"bytes"
	"os"
	"syscall"
	"testing"

	"accelwall/internal/faultinject"
)

// enospc arms site to fail every hit with ENOSPC, the canonical
// disk-full signal the degraded path must absorb.
func enospc(t *testing.T, site string) {
	t.Helper()
	faultinject.Enable(faultinject.New(1).Set(site, faultinject.Rule{
		Mode: faultinject.ModeError, Every: 1, Err: syscall.ENOSPC,
	}))
	t.Cleanup(faultinject.Disable)
}

// TestDiskFullWriteDegradesServesStashAndHeals walks the full outage
// cycle for the atomic-rewrite path: a refused Write does not error,
// the payload is served from memory, and Flush lands it once the disk
// returns.
func TestDiskFullWriteDegradesServesStashAndHeals(t *testing.T) {
	s := openStore(t)
	p1, p2 := []byte("manifest-v1"), []byte("manifest-v2")
	if err := s.Write("job", p1); err != nil {
		t.Fatalf("healthy Write: %v", err)
	}

	enospc(t, faultinject.SiteFSWrite)
	if err := s.Write("job", p2); err != nil {
		t.Fatalf("disk-full Write must divert, not error: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after a refused write")
	}
	if s.Stashed() != 1 || s.MemSaves() != 1 {
		t.Fatalf("stashed=%d memSaves=%d, want 1/1", s.Stashed(), s.MemSaves())
	}
	// The in-memory copy is newer than the disk and must win reads.
	got, err := s.ReadLast("job")
	if err != nil || !bytes.Equal(got, p2) {
		t.Fatalf("ReadLast while degraded = %q, %v; want stash %q", got, err, p2)
	}
	// Flush against a still-full disk fails and stays degraded.
	if err := s.Flush(); err == nil {
		t.Fatal("Flush succeeded against a full disk")
	}
	if !s.Degraded() {
		t.Fatal("failed Flush cleared the degraded flag")
	}

	faultinject.Disable()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after disk returned: %v", err)
	}
	if s.Degraded() || s.Stashed() != 0 {
		t.Fatalf("store still degraded after heal: degraded=%v stashed=%d", s.Degraded(), s.Stashed())
	}
	// The healed copy is the stashed one, now durable on disk.
	raw, err := os.ReadFile(s.Path("job"))
	if err != nil {
		t.Fatal(err)
	}
	disk, err := DecodeLast(raw)
	if err != nil || !bytes.Equal(disk, p2) {
		t.Fatalf("healed disk copy = %q, %v; want %q", disk, err, p2)
	}
}

// TestDiskFullLogSaveTornTailHeals drives the append-log variant: a
// Save whose fsync hits ENOSPC turns the log torn and stashes, further
// degraded saves keep stashing, and the first save after space returns
// heals through the atomic rewrite (repairing the torn tail).
func TestDiskFullLogSaveTornTailHeals(t *testing.T) {
	s := openStore(t)
	l, err := s.OpenLog("run")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p1, p2, p3, p4 := []byte("snap-1"), []byte("snap-2"), []byte("snap-3"), []byte("snap-4")
	if err := l.Save(p1); err != nil {
		t.Fatalf("healthy Save: %v", err)
	}

	enospc(t, faultinject.SiteFSSync)
	if err := l.Save(p2); err != nil {
		t.Fatalf("disk-full Save must divert, not error: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after a refused append fsync")
	}
	if got, err := s.ReadLast("run"); err != nil || !bytes.Equal(got, p2) {
		t.Fatalf("ReadLast while degraded = %q, %v; want stash %q", got, err, p2)
	}
	// Still full: the degraded save path tries the rewrite, fails, and
	// keeps ringing snapshots in memory.
	if err := l.Save(p3); err != nil {
		t.Fatalf("second degraded Save: %v", err)
	}
	if got, _ := s.ReadLast("run"); !bytes.Equal(got, p3) {
		t.Fatalf("stash ring did not advance: got %q, want %q", got, p3)
	}
	if s.MemSaves() != 2 {
		t.Fatalf("MemSaves = %d, want 2", s.MemSaves())
	}

	// Space returns: the next Save itself heals (no Flush needed).
	faultinject.Disable()
	if err := l.Save(p4); err != nil {
		t.Fatalf("healing Save: %v", err)
	}
	if s.Degraded() || s.Stashed() != 0 {
		t.Fatalf("log save did not heal: degraded=%v stashed=%d", s.Degraded(), s.Stashed())
	}
	raw, err := os.ReadFile(s.Path("run"))
	if err != nil {
		t.Fatal(err)
	}
	if disk, err := DecodeLast(raw); err != nil || !bytes.Equal(disk, p4) {
		t.Fatalf("healed log = %q, %v; want %q", disk, err, p4)
	}
	// Appends keep working on the reopened (compacted) handle.
	if err := l.Save([]byte("snap-5")); err != nil {
		t.Fatalf("post-heal append: %v", err)
	}
}

// TestDiskFullFlushProbeGatesHeal: Flush only clears the degraded flag
// after a probe write succeeds through the same seams real snapshots
// use — landing the stash alone is not proof the disk is back.
func TestDiskFullFlushProbeGatesHeal(t *testing.T) {
	s := openStore(t)
	if err := s.Write("job", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	enospc(t, faultinject.SiteFSWrite)
	if err := s.Write("job", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	// Every:2 lets the stashed item's rewrite through (hit 1) but fails
	// the probe (hit 2): the snapshot lands yet the flag must hold.
	faultinject.Enable(faultinject.New(1).Set(faultinject.SiteFSWrite, faultinject.Rule{
		Mode: faultinject.ModeError, Every: 2, Err: syscall.ENOSPC,
	}))
	if err := s.Flush(); err == nil {
		t.Fatal("Flush succeeded though the probe write failed")
	}
	if !s.Degraded() {
		t.Fatal("degraded flag cleared without a successful probe")
	}
	if s.Stashed() != 0 {
		t.Fatalf("stash not drained by partial Flush: %d", s.Stashed())
	}
	// The landed copy is already readable from disk.
	if got, err := s.ReadLast("job"); err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("ReadLast = %q, %v; want disk copy %q", got, err, "v2")
	}

	faultinject.Disable()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush with healthy disk: %v", err)
	}
	if s.Degraded() {
		t.Fatal("still degraded after probe succeeded")
	}
}

// TestDiskFullOpenLogNewFileDurability pins the create-path fix: a
// brand-new log's header must be fsynced and so must its directory
// entry (two fs.fsync hits), and a disk that refuses those fsyncs must
// fail OpenLog instead of handing back a log that would vanish in a
// crash.
func TestDiskFullOpenLogNewFileDurability(t *testing.T) {
	s := openStore(t)
	inj := faultinject.New(1).Set(faultinject.SiteFSSync, faultinject.Rule{}) // count-only
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
	l, err := s.OpenLog("fresh")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if hits := inj.Hits(faultinject.SiteFSSync); hits != 2 {
		t.Fatalf("new-file OpenLog performed %d fsyncs, want 2 (header + directory)", hits)
	}

	enospc(t, faultinject.SiteFSSync)
	if _, err := s.OpenLog("fresh2"); err == nil {
		t.Fatal("OpenLog created an undurable log on a full disk")
	} else if !IsDiskFull(err) {
		t.Fatalf("OpenLog error does not surface the disk-full cause: %v", err)
	}
}

// TestDiskFullRemoveSurvivesFullDisk: forgetting a finished run must
// work even while the disk refuses fsyncs, and must drop the name's
// in-memory stash.
func TestDiskFullRemoveSurvivesFullDisk(t *testing.T) {
	s := openStore(t)
	if err := s.Write("done", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	enospc(t, faultinject.SiteFSWrite)
	if err := s.Write("done", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if s.Stashed() != 1 {
		t.Fatalf("stashed = %d, want 1", s.Stashed())
	}

	enospc(t, faultinject.SiteFSSync)
	if err := s.Remove("done"); err != nil {
		t.Fatalf("Remove on a full disk: %v", err)
	}
	if s.Stashed() != 0 {
		t.Fatal("Remove left the name's stash behind")
	}
	if _, err := os.Stat(s.Path("done")); !os.IsNotExist(err) {
		t.Fatalf("log file still present after Remove: %v", err)
	}
}
