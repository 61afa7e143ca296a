package bitarray

import (
	"encoding/binary"
	"testing"
)

// benchSink defeats dead-code elimination in the benchmarks.
var benchSink uint64

// trace runs one deterministic access mix over the array and records
// every value read plus the final counters, so two arrays can be
// compared access-for-access.
func trace(a *Array) (reads []uint64, nr, nw uint64) {
	buf := make([]byte, 8)
	for cyc := uint64(0); cyc < 400; cyc++ {
		a.Tick(cyc)
		e := int(cyc) % a.Entries()
		a.WriteUint64(e, 0x8000_0000_0000_0000|cyc)
		reads = append(reads, a.ReadUint64(e))
		a.WriteBytes(e, 2, []byte{byte(cyc), byte(cyc >> 8)})
		a.ReadBytes(e, 0, buf)
		for _, b := range buf {
			reads = append(reads, uint64(b))
		}
	}
	return reads, a.Reads(), a.Writes()
}

// An armed-then-expired fault must leave the read/write traces and the
// Reads()/Writes() counters identical to a fault-free array: the fast
// path may skip observation bookkeeping, but never an actual access.
func TestFastPathTraceParity(t *testing.T) {
	clean := New("s", 8, 64)
	faulty := New("s", 8, 64)
	// Intermittent stuck-at-1 on a bit the written pattern always holds
	// at 1 (bit 63 of 0x8000...|cyc, untouched by the byte writes), so
	// the active window forces the cell to the value it would have
	// anyway and the traces stay byte-identical even while the fault is
	// live.
	faulty.Arm(Fault{Kind: Intermittent, Entry: 3, Bit: 63, StuckVal: 1, Start: 50, Duration: 100})
	if !faulty.needObs {
		t.Fatal("Arm did not raise the observation gate")
	}

	cr, crr, crw := trace(clean)
	fr, frr, frw := trace(faulty)
	if len(cr) != len(fr) {
		t.Fatalf("trace lengths differ: %d vs %d", len(cr), len(fr))
	}
	for i := range cr {
		if cr[i] != fr[i] {
			t.Fatalf("read %d differs: clean %#x, faulty %#x", i, cr[i], fr[i])
		}
	}
	if crr != frr || crw != frw {
		t.Fatalf("counters differ: clean %d/%d, faulty %d/%d", crr, crw, frr, frw)
	}
	// The window expired at cycle 150, so after the trace the gate must
	// be down again while the consumed status is still reported.
	if faulty.needObs {
		t.Fatal("observation gate still up after the stuck-at window expired")
	}
	if st := faulty.FaultStatus(); st != StatusConsumed {
		t.Fatalf("expired fault status = %v, want StatusConsumed", st)
	}
}

// The gate must track the fault lifecycle exactly: up from Arm through
// the live window, down once every fault is inert.
func TestFastPathGateLifecycle(t *testing.T) {
	a := New("s", 4, 64)
	a.WriteUint64(1, 42) // make the entry live before the fault lands

	a.Arm(Fault{Kind: Transient, Entry: 1, Bit: 5, Start: 10})
	if !a.needObs {
		t.Fatal("gate down after Arm")
	}
	// Before Start the fault is armed but unapplied: every observe
	// function skips it, so the first Tick may lower the gate.
	a.Tick(5)
	if a.needObs {
		t.Fatal("gate up for an armed-but-unapplied fault after Tick")
	}
	a.Tick(10) // injection: live
	if !a.needObs {
		t.Fatal("gate down while fault is live")
	}
	a.ReadUint64(1) // consuming read: transient becomes inert
	if a.needObs {
		t.Fatal("gate up after the transient was consumed")
	}
	if st := a.FaultStatus(); st != StatusConsumed {
		t.Fatalf("status = %v, want StatusConsumed", st)
	}

	// A masking write on a second live transient also lowers the gate.
	b := New("s", 4, 64)
	b.WriteUint64(2, 7)
	b.Arm(Fault{Kind: Transient, Entry: 2, Bit: 0, Start: 0})
	b.Tick(0)
	if !b.needObs {
		t.Fatal("gate down while fault is live")
	}
	b.WriteUint64(2, 7)
	if b.needObs {
		t.Fatal("gate up after the transient was overwritten")
	}
	if st := b.FaultStatus(); st != StatusOverwritten {
		t.Fatalf("status = %v, want StatusOverwritten", st)
	}

	// Disarm always lowers the gate.
	c := New("s", 4, 64)
	c.Arm(Fault{Kind: Permanent, Entry: 0, Bit: 0, StuckVal: 1, Start: 0})
	c.Tick(0)
	if !c.needObs {
		t.Fatal("gate down while a permanent fault forces the cell")
	}
	c.Disarm()
	if c.needObs {
		t.Fatal("gate up after Disarm")
	}
}

// An intermittent window that expires must lower the gate even with no
// intervening access, and a permanent fault must keep it up forever.
func TestFastPathGateExpiry(t *testing.T) {
	a := New("s", 4, 64)
	a.WriteUint64(0, 1)
	a.Arm(Fault{Kind: Intermittent, Entry: 0, Bit: 3, StuckVal: 1, Start: 10, Duration: 20})
	a.Tick(10)
	if !a.needObs {
		t.Fatal("gate down inside the stuck-at window")
	}
	a.Tick(29)
	if !a.needObs {
		t.Fatal("gate down one cycle before expiry")
	}
	a.Tick(30)
	if a.needObs {
		t.Fatal("gate up after the window expired")
	}

	p := New("s", 4, 64)
	p.Arm(Fault{Kind: Permanent, Entry: 0, Bit: 3, StuckVal: 1, Start: 0})
	for cyc := uint64(0); cyc < 1000; cyc += 100 {
		p.Tick(cyc)
		if !p.needObs {
			t.Fatalf("gate down at cycle %d for a permanent fault", cyc)
		}
	}
}

// benchArray builds a 64×64 array with every entry written once.
func benchArray() *Array {
	a := New("s", 64, 64)
	for e := 0; e < 64; e++ {
		a.WriteUint64(e, uint64(e)*0x9e3779b97f4a7c15)
	}
	return a
}

// The inert-fault paths are the hot loops of every injection run after
// its fault settles (consumed, overwritten, or expired); these
// benchmarks pin the fast-path win over the always-observe baseline
// (compare BenchmarkReadWordWithFaultArmed for the live stuck-at cost).
func BenchmarkReadWordInertFault(b *testing.B) {
	cases := []struct {
		name string
		prep func(*Array)
	}{
		{"ExpiredIntermittent", func(a *Array) {
			a.Arm(Fault{Kind: Intermittent, Entry: 1, Bit: 2, StuckVal: 1, Start: 0, Duration: 5})
			a.Tick(0)
			a.Tick(10) // window over: fault inert, still armed on the array
		}},
		{"ConsumedTransient", func(a *Array) {
			a.Arm(Fault{Kind: Transient, Entry: 1, Bit: 2, Start: 0})
			a.Tick(0)
			a.ReadUint64(1) // consume it
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a := benchArray()
			c.prep(a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink ^= a.ReadWord(i&63, 0)
			}
		})
	}
}

func BenchmarkWriteWordInertFault(b *testing.B) {
	for _, armed := range []bool{false, true} {
		name := "NoFault"
		if armed {
			name = "ExpiredIntermittent"
		}
		b.Run(name, func(b *testing.B) {
			a := benchArray()
			if armed {
				a.Arm(Fault{Kind: Intermittent, Entry: 1, Bit: 2, StuckVal: 1, Start: 0, Duration: 5})
				a.Tick(0)
				a.Tick(10)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.WriteWord(i&63, 0, uint64(i))
			}
		})
	}
}

// TestByteAccessEveryAlignment checks the word-at-a-time byte accessors
// against the definition — byte i of an entry is bits [8i, 8i+8) of its
// little-endian words — for every offset and length of a multi-word
// entry, and that a write leaves every byte outside its range alone,
// in the entry and in its neighbours.
func TestByteAccessEveryAlignment(t *testing.T) {
	const entryBytes = 24
	a := New("line", 3, entryBytes*8)
	byteAt := func(e, i int) byte {
		return byte(a.data[e*a.wordsPerEnt+i/8] >> (uint(i%8) * 8))
	}
	fill := func() {
		for i := range a.data {
			a.data[i] = 0x0123456789abcdef * uint64(i+1)
		}
	}
	for off := 0; off <= entryBytes; off++ {
		for n := 0; off+n <= entryBytes; n++ {
			fill()
			got := make([]byte, n)
			a.ReadBytes(1, off, got)
			for i, b := range got {
				if b != byteAt(1, off+i) {
					t.Fatalf("ReadBytes(off=%d,n=%d)[%d] = %#x, want %#x", off, n, i, b, byteAt(1, off+i))
				}
			}
			before := append([]uint64(nil), a.data...)
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(0xa0 + i)
			}
			a.WriteBytes(1, off, src)
			for e := 0; e < 3; e++ {
				for i := 0; i < entryBytes; i++ {
					want := byte(before[e*a.wordsPerEnt+i/8] >> (uint(i%8) * 8))
					if e == 1 && i >= off && i < off+n {
						want = src[i-off]
					}
					if byteAt(e, i) != want {
						t.Fatalf("WriteBytes(off=%d,n=%d): entry %d byte %d = %#x, want %#x", off, n, e, i, byteAt(e, i), want)
					}
				}
			}
		}
	}
}

// BenchmarkByteAccess times the cache-line-shaped accessors at the three
// shapes the cores use: an unaligned instruction fetch, an aligned
// 8-byte data access and a whole-line fill.
func BenchmarkByteAccess(b *testing.B) {
	a := New("line", 64, 64*8)
	for _, c := range []struct {
		name   string
		off, n int
	}{{"Fetch15At3", 3, 15}, {"Data8At16", 16, 8}, {"Line64", 0, 64}} {
		buf := make([]byte, c.n)
		b.Run("Read/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.ReadBytes(i&63, c.off, buf)
			}
			benchSink += uint64(buf[0])
		})
		b.Run("Write/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.WriteBytes(i&63, c.off, buf)
			}
		})
	}
}

// The pair accessors are two word accesses with the overhead paid once:
// under every fault model, on either word of the pair and with a profile
// recording, ReadWordPair and WriteWordPair must leave what two
// ReadWord/WriteWord calls leave — values, stored bits, counters,
// observation counters, fault status, footprint and profile.
func TestWordPairsAreTwoWordAccesses(t *testing.T) {
	for _, f := range []Fault{
		{Kind: Transient, Entry: 2, Bit: 5, Start: 3},
		{Kind: Transient, Entry: 2, Bit: 70, Start: 9},
		{Kind: Intermittent, Entry: 1, Bit: 64, StuckVal: 1, Start: 4, Duration: 20},
		{Kind: Permanent, Entry: 2, Bit: 127, StuckVal: 0, Start: 0},
	} {
		pair, single := New("q", 4, 128), New("q", 4, 128)
		var cycle uint64
		for _, a := range []*Array{pair, single} {
			a.Arm(f)
			a.StartProfile(func() uint64 { return cycle })
		}
		for cycle = 0; cycle < 40; cycle++ {
			pair.Tick(cycle)
			single.Tick(cycle)
			e := int(cycle*7) % 4
			w0, w1 := cycle*0x9e3779b97f4a7c15, ^cycle<<3
			if cycle%3 == 0 {
				pair.WriteWordPair(e, w0, w1)
				single.WriteWord(e, 0, w0)
				single.WriteWord(e, 1, w1)
			} else {
				p0, p1 := pair.ReadWordPair(e)
				s0, s1 := single.ReadWord(e, 0), single.ReadWord(e, 1)
				if p0 != s0 || p1 != s1 {
					t.Fatalf("%+v cycle %d: pair read %#x %#x, two reads %#x %#x", f, cycle, p0, p1, s0, s1)
				}
			}
			for i := 0; i < 4; i++ {
				if pair.Stored(i, 0) != single.Stored(i, 0) || pair.Stored(i, 1) != single.Stored(i, 1) {
					t.Fatalf("%+v cycle %d: entry %d stores differ", f, cycle, i)
				}
			}
			pn, pl := pair.FaultTouches()
			sn, sl := single.FaultTouches()
			if pair.Reads() != single.Reads() || pair.Writes() != single.Writes() ||
				pair.ObservedReads() != single.ObservedReads() || pair.ObservedWrites() != single.ObservedWrites() ||
				pair.FaultStatus() != single.FaultStatus() || pn != sn || pl != sl {
				t.Fatalf("%+v cycle %d: counters or fault state differ", f, cycle)
			}
		}
		pp, sp := pair.StopProfile(), single.StopProfile()
		for e := 0; e < 4; e++ {
			pi, si := pp.Events(e), sp.Events(e)
			for {
				pe, pok := pi.Next()
				se, sok := si.Next()
				if pe != se || pok != sok {
					t.Fatalf("%+v entry %d: profile event %+v, two accesses record %+v", f, e, pe, se)
				}
				if !pok {
					break
				}
			}
		}
	}
}

// HoldsBytes compares stored bytes at any offset and length without an
// access; Stored is the stored word, also without one.
func TestHoldsBytesAndStoredAreNotAccesses(t *testing.T) {
	a := New("l", 2, 512)
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i*37 + 1)
	}
	a.WriteBytes(1, 0, line)
	r, w := a.Reads(), a.Writes()
	for off := 0; off < 64; off++ {
		for n := 0; off+n <= 64; n++ {
			if !a.HoldsBytes(1, off, line[off:off+n]) {
				t.Fatalf("HoldsBytes(1, %d, %d bytes) = false on equal bytes", off, n)
			}
			if n > 0 {
				other := append([]byte(nil), line[off:off+n]...)
				other[n-1] ^= 0x40
				if a.HoldsBytes(1, off, other) {
					t.Fatalf("HoldsBytes(1, %d, %d bytes) = true on a changed last byte", off, n)
				}
			}
		}
	}
	if a.Stored(1, 1) != binary.LittleEndian.Uint64(line[8:]) {
		t.Fatalf("Stored(1, 1) = %#x", a.Stored(1, 1))
	}
	if a.Reads() != r || a.Writes() != w {
		t.Fatal("HoldsBytes or Stored counted an access")
	}
}
