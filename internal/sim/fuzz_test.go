package sim

import "testing"

// decodeKind maps an op's first byte, modulo its length, to a kind. Byte 2
// decodes as After a second time, and bytes 3 to 6 — once the timer kinds
// AfterFunc, Stop, Reset and re-arm — all decode as Every, so the checked-in
// corpus keeps its layout.
var decodeKind = [...]opKind{opAfter, opAt, opAfter, opEvery, opEvery, opEvery, opEvery, opRun, opStep}

// decodeProgram reads an op program from fuzz bytes. Every op is four
// bytes — kind, delay class, delay mantissa, tick count — so a
// mutation changes one call and leaves the rest of the program in place.
// The first byte sets how many onFire scripts follow (one to four, up to
// three ops each); the remaining bytes are the top-level ops.
func decodeProgram(data []byte) program {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	decodeOp := func() op {
		kind, class, mant, n := next(), next(), next(), next()
		o := op{kind: decodeKind[int(kind)%len(decodeKind)], ticks: int(n)}
		// at: a few µs either side of a power of two, up to 2^62.
		o.at = Time(1)<<(mant%63) + Time(class>>3) - 16
		m := Duration(mant)
		switch class % 8 {
		case 0:
			o.d = 0
		case 1:
			o.d = m
		case 2:
			o.d = m * Millisecond / 8
		case 3:
			o.d = m * Second / 4
		case 4:
			o.d = m * Minute
		case 5:
			o.d = Duration(1) << (mant % 63)
		case 6:
			o.d = Duration(1)<<(mant%63) - m%7
		case 7:
			o.d = -m
		}
		return o
	}
	p := program{budget: 600}
	p.onFire = make([][]op, 1+next()%4)
	for i := range p.onFire {
		for n := next() % 4; n > 0; n-- {
			p.onFire[i] = append(p.onFire[i], decodeOp())
		}
	}
	for len(data) > 0 {
		p.top = append(p.top, decodeOp())
	}
	return p
}

// FuzzKernelOrder turns bytes into a program of After / At / Every countdown
// / Run(until) / Step calls, nested scheduling included, and compares every
// fire and the clock and queue length after every Run with the sorted
// reference.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 5, 0, 2, 17, 9, 0})
	// Every loops nested in a script and at the top level; a staged run.
	f.Add([]byte{0, 1, 6, 1, 3, 0, 3, 1, 200, 0, 3, 2, 40, 0, 5, 1, 9, 0, 7, 3, 1, 0, 0, 1, 200, 0, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("longer programs only repeat what shorter ones reach")
		}
		if d := decodeProgram(data).diverge(); d != "" {
			t.Fatal(d)
		}
	})
}
