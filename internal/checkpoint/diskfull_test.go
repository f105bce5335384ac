package checkpoint

import (
	"bytes"
	"os"
	"syscall"
	"testing"

	"accelwall/internal/faultinject"
)

// enospc arms site to fail every hit with ENOSPC, the canonical
// disk-full signal.
func enospc(t *testing.T, site string) {
	t.Helper()
	faultinject.Enable(faultinject.New(1).Set(site, faultinject.Rule{
		Mode: faultinject.ModeError, Every: 1, Err: syscall.ENOSPC,
	}))
	t.Cleanup(faultinject.Disable)
}

// TestDiskFullWriteErrorsKeepsPriorFile: a Write the full disk refuses
// fails with an error IsDiskFull recognises, leaves the prior file
// readable, and the same Write lands once space returns.
func TestDiskFullWriteErrorsKeepsPriorFile(t *testing.T) {
	s := openStore(t)
	p1, p2 := []byte("manifest-v1"), []byte("manifest-v2")
	if err := s.Write("job", p1); err != nil {
		t.Fatalf("healthy Write: %v", err)
	}

	enospc(t, faultinject.SiteFSWrite)
	if err := s.Write("job", p2); !IsDiskFull(err) {
		t.Fatalf("Write on a full disk = %v, want a disk-full error", err)
	}
	if got, err := s.ReadLast("job"); err != nil || !bytes.Equal(got, p1) {
		t.Fatalf("ReadLast after a refused Write = %q, %v; want the prior %q", got, err, p1)
	}

	faultinject.Disable()
	if err := s.Write("job", p2); err != nil {
		t.Fatalf("Write after space returned: %v", err)
	}
	if got, err := s.ReadLast("job"); err != nil || !bytes.Equal(got, p2) {
		t.Fatalf("ReadLast = %q, %v; want %q", got, err, p2)
	}
}

// TestDiskFullLogSaveTornTailHeals drives the append log: a Save whose
// fsync hits ENOSPC errors and turns the log torn, further saves try the
// atomic rewrite and keep erroring while the disk is full, and the first
// save after space returns rewrites the log to just its record (dropping
// the suspect tail). Appends continue on the rewritten log.
func TestDiskFullLogSaveTornTailHeals(t *testing.T) {
	s := openStore(t)
	l, err := s.OpenLog("run")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p1, p2, p3, p4, p5 := []byte("snap-1"), []byte("snap-2"), []byte("snap-3"), []byte("snap-4"), []byte("snap-5")
	if err := l.Save(p1); err != nil {
		t.Fatalf("healthy Save: %v", err)
	}

	enospc(t, faultinject.SiteFSSync)
	if err := l.Save(p2); !IsDiskFull(err) {
		t.Fatalf("Save on a full disk = %v, want a disk-full error", err)
	}
	if err := l.Save(p3); !IsDiskFull(err) {
		t.Fatalf("second Save on a full disk = %v, want a disk-full error", err)
	}

	faultinject.Disable()
	if err := l.Save(p4); err != nil {
		t.Fatalf("healing Save: %v", err)
	}
	raw, err := os.ReadFile(s.Path("run"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerLen + frameLen + len(p4)); int64(len(raw)) != want {
		t.Fatalf("healed log is %d bytes, want %d (one rewritten record)", len(raw), want)
	}
	if disk, err := DecodeLast(raw); err != nil || !bytes.Equal(disk, p4) {
		t.Fatalf("healed log = %q, %v; want %q", disk, err, p4)
	}
	// Appends keep working on the reopened (rewritten) handle.
	if err := l.Save(p5); err != nil {
		t.Fatalf("post-heal append: %v", err)
	}
	if got, err := s.ReadLast("run"); err != nil || !bytes.Equal(got, p5) {
		t.Fatalf("ReadLast after the post-heal append = %q, %v; want %q", got, err, p5)
	}
}

// TestDiskFullOpenLogNewFileDurability pins the create-path fix: a
// brand-new log's header must be fsynced and so must its directory
// entry (two fs.fsync hits), and a disk that refuses those fsyncs must
// fail OpenLog instead of handing back a log that would vanish in a
// crash, and must not leave the file for a retry to trust.
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
	if _, err := os.Stat(s.Path("fresh2")); !os.IsNotExist(err) {
		t.Fatalf("a failed OpenLog left its unsynced file behind: %v", err)
	}
}

// TestDiskFullRemoveSurvivesFullDisk: forgetting a finished run must
// work even while the disk refuses fsyncs.
func TestDiskFullRemoveSurvivesFullDisk(t *testing.T) {
	s := openStore(t)
	if err := s.Write("done", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	enospc(t, faultinject.SiteFSSync)
	if err := s.Remove("done"); err != nil {
		t.Fatalf("Remove on a full disk: %v", err)
	}
	if _, err := os.Stat(s.Path("done")); !os.IsNotExist(err) {
		t.Fatalf("log file still present after Remove: %v", err)
	}
}
