package iofault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
)

func TestPointNaming(t *testing.T) {
	if got := Point("journal", OpWrite); got != "iofault.journal.write" {
		t.Fatalf("Point = %q", got)
	}
}

// TestUninstrumentedRoundTrip: with nothing armed, the wrappers behave
// exactly like the os package — open, write, sync, rename, read.
func TestUninstrumentedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "x.tmp")
	final := filepath.Join(dir, "x")

	f, err := OpenFile("test", tmp, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Rename("test", tmp, final); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile("test", final)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := WriteAtomic("test", final, []byte("bye"), true); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(final)
	if err != nil || string(b) != "bye" {
		t.Fatalf("after WriteAtomic: %q, %v", b, err)
	}
}

// TestInjectedFaults: each op consults its own point and only that
// point; armed ENOSPC/EIO surface through errors.Is.
func TestInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		op     string
		action func() error
		want   error
		run    func() error
	}{
		{OpOpen, NoSpace(), ErrNoSpace, func() error {
			_, err := OpenFile("t", path, os.O_WRONLY, 0o644)
			return err
		}},
		{OpWrite, NoSpace(), ErrNoSpace, func() error {
			f, err := OpenFile("t", path, os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte("zz"))
			return err
		}},
		{OpSync, IOError(), ErrIO, func() error {
			f, err := OpenFile("t", path, os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Sync()
		}},
		{OpRename, IOError(), ErrIO, func() error {
			return Rename("t", path, path+".moved")
		}},
		{OpRead, IOError(), ErrIO, func() error {
			_, err := ReadFile("t", path)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			failpoint.Enable(Point("t", tc.op), tc.action)
			defer failpoint.DisableAll()
			if err := tc.run(); !errors.Is(err, tc.want) {
				t.Fatalf("op %s: err = %v, want %v", tc.op, err, tc.want)
			}
		})
	}
	// The fault was site-scoped: another site stays healthy.
	failpoint.Enable(Point("other", OpRead), IOError())
	defer failpoint.DisableAll()
	if _, err := ReadFile("t", path); err != nil {
		t.Fatalf("cross-site leak: %v", err)
	}
}

// writeOnce creates (or truncates) path and writes data to it once
// through the site's failpoints, returning the write's error.
func writeOnce(t *testing.T, site, path string, data []byte) error {
	t.Helper()
	f, err := OpenFile(site, path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

// TestPartialWriteTears: an armed PartialWrite persists exactly N bytes
// to the real file, then fails with the wrapped error.
func TestPartialWriteTears(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn")
	failpoint.Enable(Point("t", OpWrite), PartialWrite(3, nil))
	defer failpoint.DisableAll()

	err := writeOnce(t, "t", path, []byte("abcdef"))
	if !errors.Is(err, ErrIO) {
		t.Fatalf("torn write err = %v, want EIO", err)
	}
	var pw *PartialWriteError
	if !errors.As(err, &pw) || pw.N != 3 {
		t.Fatalf("err = %#v, want PartialWriteError{N:3}", err)
	}
	if !strings.Contains(pw.Error(), "torn write after 3 bytes") {
		t.Fatalf("Error() = %q", pw.Error())
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil || string(b) != "abc" {
		t.Fatalf("on-disk after tear = %q, %v; want %q", b, rerr, "abc")
	}
}

// TestPartialWriteClamps: N beyond the buffer writes the whole buffer;
// negative N writes nothing. Either way the armed error surfaces.
func TestPartialWriteClamps(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		n    int
		want string
	}{
		{"beyond", 99, "abcdef"},
		{"negative", -1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			failpoint.Enable(Point("t", OpWrite), PartialWrite(tc.n, ErrNoSpace))
			defer failpoint.DisableAll()
			if err := writeOnce(t, "t", path, []byte("abcdef")); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("err = %v, want ENOSPC", err)
			}
			b, _ := os.ReadFile(path)
			if string(b) != tc.want {
				t.Fatalf("on-disk = %q, want %q", b, tc.want)
			}
		})
	}
}

// TestOpenRealError: a genuine os failure (missing directory) comes
// back unchanged, not masked by the wrapper.
func TestOpenRealError(t *testing.T) {
	if _, err := OpenFile("t", filepath.Join(t.TempDir(), "no", "dir", "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

// TestWriteAtomic: whatever step fails, the target keeps its previous
// bytes. Write and sync failures (torn or not) scrub the temp file; a
// rename failure leaves the complete temp file, which SweepTmp
// collects. Success replaces the target and leaves no residue. Every
// case runs with the directory fsync on and off.
func TestWriteAtomic(t *testing.T) {
	const oldData, newData = "previous", "replacement"
	cases := []struct {
		name    string
		op      string
		action  func() error
		want    error
		leftTmp bool
	}{
		{"ok", "", nil, nil, false},
		{"open", OpOpen, NoSpace(), ErrNoSpace, false},
		{"write", OpWrite, NoSpace(), ErrNoSpace, false},
		{"torn", OpWrite, PartialWrite(4, nil), ErrIO, false},
		{"sync", OpSync, IOError(), ErrIO, false},
		{"rename", OpRename, IOError(), ErrIO, true},
	}
	for _, tc := range cases {
		for _, syncDir := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/syncDir=%v", tc.name, syncDir), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "state.dat")
				if err := os.WriteFile(path, []byte(oldData), 0o644); err != nil {
					t.Fatal(err)
				}
				if tc.action != nil {
					failpoint.Enable(Point("atomic", tc.op), tc.action)
					defer failpoint.DisableAll()
				}
				err := WriteAtomic("atomic", path, []byte(newData), syncDir)
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				want := oldData
				if tc.want == nil {
					want = newData
				}
				if b, _ := os.ReadFile(path); string(b) != want {
					t.Fatalf("target = %q, want %q", b, want)
				}
				tmp, terr := os.ReadFile(path + tmpSuffix)
				if !tc.leftTmp {
					if !errors.Is(terr, os.ErrNotExist) {
						t.Fatalf("temp residue left behind: %q, %v", tmp, terr)
					}
					return
				}
				if string(tmp) != newData {
					t.Fatalf("rename failure left temp %q, want the complete %q", tmp, newData)
				}
				if n := SweepTmp(dir, "*.dat"); n != 1 {
					t.Fatalf("SweepTmp removed %d files, want 1", n)
				}
				if _, err := os.Stat(path + tmpSuffix); !errors.Is(err, os.ErrNotExist) {
					t.Fatal("SweepTmp left the temp file")
				}
			})
		}
	}
}

// TestDiscardAndSweepTmp: Discard removes a file and its temp residue
// (and is a no-op on a missing file); SweepTmp removes only the temp
// residue of files matching its pattern and never a final file.
func TestDiscardAndSweepTmp(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}

	gone := write("gone.ckpt")
	goneTmp := write("gone.ckpt" + tmpSuffix)
	Discard(gone)
	if exists(gone) || exists(goneTmp) {
		t.Fatal("Discard left the file or its temp residue")
	}
	Discard(filepath.Join(dir, "never-existed"))

	keep := write("a.ckpt")
	tmpA := write("a.ckpt" + tmpSuffix)
	tmpB := write("b.ckpt" + tmpSuffix)
	other := write("c.rce" + tmpSuffix)
	if n := SweepTmp(dir, "*.ckpt"); n != 2 {
		t.Fatalf("SweepTmp removed %d files, want 2", n)
	}
	if exists(tmpA) || exists(tmpB) {
		t.Fatal("SweepTmp left matching residue")
	}
	if !exists(keep) || !exists(other) {
		t.Fatal("SweepTmp removed a final file or another pattern's residue")
	}
	if n := SweepTmp(filepath.Join(dir, "missing"), "*.ckpt"); n != 0 {
		t.Fatalf("SweepTmp on a missing dir removed %d files", n)
	}
}

// TestGateTransitions steps the clock by hand: the gate opens on the
// Threshold-th consecutive failure, admits exactly one probe per
// ProbeEvery while open, and the first success closes it.
func TestGateTransitions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	g := Gate{Threshold: 3, ProbeEvery: 10 * time.Second}

	// A success resets the consecutive-failure count.
	g.Fail(t0)
	g.Fail(t0)
	if g.OK() {
		t.Fatal("OK on a closed gate reported a recovery")
	}
	for i := 1; i <= 3; i++ {
		if !g.Allow(t0) {
			t.Fatalf("closed gate denied attempt %d", i)
		}
		if opened := g.Fail(t0); opened != (i == 3) || g.Degraded() != (i == 3) {
			t.Fatalf("failure %d: opened=%v degraded=%v", i, opened, g.Degraded())
		}
	}
	if g.Allow(at(9 * time.Second)) {
		t.Fatal("open gate admitted an attempt before the probe was due")
	}
	if !g.Allow(at(10 * time.Second)) {
		t.Fatal("open gate denied the due probe")
	}
	if g.Allow(at(10 * time.Second)) {
		t.Fatal("a second attempt leaked through the same probe slot")
	}
	if g.Fail(at(10 * time.Second)) {
		t.Fatal("a failed probe re-reported the opening")
	}
	if g.Allow(at(19 * time.Second)) {
		t.Fatal("next probe admitted early")
	}
	if !g.Allow(at(20 * time.Second)) {
		t.Fatal("next probe not admitted")
	}
	if !g.OK() || g.Degraded() {
		t.Fatal("a successful probe did not close the gate")
	}
	if !g.Allow(at(20 * time.Second)) {
		t.Fatal("closed gate denied an attempt")
	}

	// Threshold 1 (the journal's) and the zero value open on the first
	// failure, with the first probe due ProbeEvery later.
	for _, th := range []int{1, 0} {
		g := Gate{Threshold: th, ProbeEvery: time.Second}
		if !g.Fail(t0) || !g.Degraded() {
			t.Fatalf("threshold %d: first failure did not open the gate", th)
		}
		if g.Allow(at(999*time.Millisecond)) || !g.Allow(at(time.Second)) {
			t.Fatalf("threshold %d: probe not due exactly ProbeEvery after the failure", th)
		}
	}
}
