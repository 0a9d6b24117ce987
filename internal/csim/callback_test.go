package csim

import (
	"testing"

	"healers/internal/cmem"
)

func TestCallbackRegistrationAndCall(t *testing.T) {
	p := NewProcess(nil)
	addr := p.RegisterCallback(func(pp *Process, args []uint64) uint64 {
		return args[0] + args[1]
	})
	if !p.IsCode(addr) {
		t.Error("callback address not in text segment")
	}
	if got := p.CallPtr(addr, []uint64{2, 3}); got != 5 {
		t.Errorf("CallPtr = %d", got)
	}
}

func TestCallPtrGarbageRaisesSegv(t *testing.T) {
	p := NewProcess(nil)
	out := p.Run(func() uint64 {
		return p.CallPtr(0xdeadbeef, nil)
	})
	if out.Kind != OutcomeSegfault {
		t.Fatalf("CallPtr(garbage) = %v", out)
	}
	if out.Fault.Addr != 0xdeadbeef {
		t.Errorf("fault at %#x", uint64(out.Fault.Addr))
	}
}

func TestCallbacksSurviveFork(t *testing.T) {
	p := NewProcess(nil)
	addr := p.RegisterCallback(func(pp *Process, args []uint64) uint64 { return 7 })
	c := p.Fork()
	if got := c.CallPtr(addr, nil); got != 7 {
		t.Errorf("forked CallPtr = %d", got)
	}
}

func TestStaticAreasArePerOwnerAndStable(t *testing.T) {
	p := NewProcess(nil)
	a1 := p.Static("x", 64)
	a2 := p.Static("x", 64)
	b1 := p.Static("y", 64)
	if a1 != a2 {
		t.Error("same owner returned different statics")
	}
	if a1 == b1 {
		t.Error("different owners share a static")
	}
	p.StoreU64(a1, 42)
	c := p.Fork()
	if c.Static("x", 64) != a1 {
		t.Error("fork lost the static address")
	}
	if v := c.LoadU64(a1); v != 42 {
		t.Errorf("fork lost static contents: %d", v)
	}
}

func TestStdinConsumption(t *testing.T) {
	p := NewProcess(nil)
	p.Stdin = []byte("abc")
	p.StdinSkip(1)
	c := p.Fork() // child inherits the read position
	if got := string(c.StdinUnread()); got != "bc" {
		t.Errorf("forked unread = %q", got)
	}
	c.StdinSkip(1)
	// Parent position unaffected by the child.
	if got := string(p.StdinUnread()); got != "bc" {
		t.Errorf("parent unread = %q", got)
	}
	p.StdinSkip(5) // past EOF stops at EOF
	if got := p.StdinUnread(); len(got) != 0 {
		t.Errorf("unread at EOF = %q", got)
	}
}

func TestCopyFromUserFailsOnBadMemory(t *testing.T) {
	p := NewProcess(nil)
	if _, ok := p.CopyFromUser(0xdead0000, 4); ok {
		t.Error("bad read succeeded")
	}
	if p.CopyToUser(0xdead0000, []byte{1}) {
		t.Error("bad write succeeded")
	}
	if _, ok := p.StrFromUser(0); ok {
		t.Error("null string read succeeded")
	}
	buf, err := p.Mem.MmapRegion(16, cmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	p.Mem.WriteCString(buf, "hi")
	if s, ok := p.StrFromUser(buf); !ok || s != "hi" {
		t.Errorf("StrFromUser = %q %v", s, ok)
	}
}

func TestFSCloneIsolation(t *testing.T) {
	fs := NewFS()
	fs.Create("/f", []byte("original"))
	c := fs.Clone()
	// The clone shares file pointers frozen; name-table mutations are
	// already private, and data mutations must privatize first.
	cf, _ := c.Lookup("/f")
	if !cf.Frozen() {
		t.Fatal("cloned file not frozen")
	}
	c.Create("/f", []byte("Xriginal")) // replace = private copy
	c.Remove("/g")
	of, ok := fs.Lookup("/f")
	if !ok {
		t.Fatal("original lost the file")
	}
	if string(of.Data) != "original" {
		t.Errorf("original mutated: %q", of.Data)
	}
}

// TestForkWritableFDIsolation pins the descriptor half of the COW
// filesystem: writable descriptors survive a fork still sharing the
// frozen file bytes (a fork costs no copy), the first in-place
// mutation privatizes through PrivatizeForWrite, and after it the
// writer's bytes never reach the parent or a sibling.
func TestForkWritableFDIsolation(t *testing.T) {
	parent := NewProcess(nil)
	parent.FS.Create("/fix", []byte("fixture"))
	wfd := parent.OpenFile("/fix", WriteOnly, false)
	if wfd < 0 {
		t.Fatal("parent open failed")
	}

	childA := parent.Fork()
	childB := parent.Fork()

	// Forking copies nothing: every side still references the frozen
	// shared file, writable descriptor or not.
	for name, pr := range map[string]*Process{"parent": parent, "childA": childA, "childB": childB} {
		of := pr.FD(wfd)
		if of == nil {
			t.Fatalf("%s lost the descriptor", name)
		}
		if !of.File.Frozen() {
			t.Fatalf("%s paid an eager copy for its writable descriptor", name)
		}
	}

	// In-place truncate+write in child A, privatizing first as every
	// stdio/unistd mutation path does.
	ofA := childA.FD(wfd)
	childA.PrivatizeForWrite(ofA)
	if ofA.File.Frozen() {
		t.Fatal("PrivatizeForWrite left the file frozen")
	}
	ofA.File.Data = append(ofA.File.Data[:0], 'A')
	bf, _ := childB.FS.Lookup("/fix")
	pf, _ := parent.FS.Lookup("/fix")
	if string(bf.Data) != "fixture" || string(pf.Data) != "fixture" {
		t.Fatalf("child A write leaked: parent=%q childB=%q", pf.Data, bf.Data)
	}
	// The privatization re-pointed child A's own name table too.
	if af, _ := childA.FS.Lookup("/fix"); string(af.Data) != "A" {
		t.Fatalf("child A name table out of sync with its descriptor: %q", af.Data)
	}

	// Advancing a child's position must not move the parent's.
	ofA.Pos = 3
	if parent.FD(wfd).Pos != 0 {
		t.Fatalf("child position shared with parent: %d", parent.FD(wfd).Pos)
	}
}

// TestForkDupAliasPreserved pins that dup'd descriptors stay aliased
// within each forked process: the pair shares one open-file description
// per process, not one per descriptor.
func TestForkDupAliasPreserved(t *testing.T) {
	parent := NewProcess(nil)
	parent.FS.Create("/fix", []byte("fixture"))
	fd1 := parent.OpenFile("/fix", ReadOnly, false)
	fd2 := parent.DupFD(parent.FD(fd1))

	child := parent.Fork()
	if child.FD(fd1) != child.FD(fd2) {
		t.Fatal("dup alias broken by fork")
	}
	if child.FD(fd1) == parent.FD(fd1) {
		t.Fatal("child shares the parent's open-file description")
	}
	child.FD(fd1).Pos = 5
	if child.FD(fd2).Pos != 5 {
		t.Fatal("aliased descriptors diverged in child")
	}
	if parent.FD(fd1).Pos != 0 {
		t.Fatal("child position moved the parent's")
	}
}
