package datatype_test

// FuzzCanonicalize lives in the external test package so it can reuse the
// bounded type decoder from internal/conformance without an import cycle
// (the same arrangement as FuzzFlattenRoundTrip).

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/datatype"
)

// FuzzCanonicalize decodes arbitrary bytes into a bounded nested datatype
// and checks the canonicalization invariants the layout cache and the
// compiled pack plans rely on:
//
//   - Canonicalize never reorders or resizes: Expand() reproduces the
//     committed block list element-for-element (pack order is semantic);
//   - the canonical aggregates (SizeBytes, ExtentBytes, NumBlocks) agree
//     with the layout's;
//   - the signature is self-consistent: re-canonicalizing the expanded
//     blocks yields the identical signature and hash (a fixed point);
//   - the compiled plan moves exactly SizeBytes, and its pack and unpack
//     agree byte-for-byte with Layout.Pack and Layout.Unpack (the
//     flatten-based reference) for every generated shape, including
//     overlapping and descending displacements.
func FuzzCanonicalize(f *testing.F) {
	for _, in := range conformance.SeedInputs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("bounded decoder input")
		}
		typ := conformance.DecodeType(data)
		l := datatype.Commit(typ)
		c := l.CanonicalForm()

		if c.SizeBytes != l.SizeBytes {
			t.Fatalf("%s: canon size %d != layout %d", typ.TypeName(), c.SizeBytes, l.SizeBytes)
		}
		if c.ExtentBytes != l.ExtentBytes {
			t.Fatalf("%s: canon extent %d != layout %d", typ.TypeName(), c.ExtentBytes, l.ExtentBytes)
		}
		if c.NumBlocks() != len(l.Blocks) {
			t.Fatalf("%s: canon expands to %d blocks, layout has %d", typ.TypeName(), c.NumBlocks(), len(l.Blocks))
		}
		exp := c.Expand()
		for i, b := range l.Blocks {
			if exp[i] != b {
				t.Fatalf("%s: expand[%d] = %+v, want %+v (runs %+v)", typ.TypeName(), i, exp[i], b, c.Runs)
			}
		}

		// Fixed point: the canonical form of the expansion is the form.
		again := datatype.Canonicalize(exp, l.ExtentBytes)
		if !c.Equal(again) || c.Hash() != again.Hash() {
			t.Fatalf("%s: canonicalization not a fixed point:\n %s\n %s",
				typ.TypeName(), c.Signature(), again.Signature())
		}

		// The compiled plan's gather agrees with the block-list gather of
		// Layout.Pack.
		plan := datatype.CompilePlan(c)
		span := l.ExtentBytes
		for _, b := range l.Blocks {
			if end := b.Offset + b.Len; end > span {
				span = end
			}
		}
		if span < 1 {
			span = 1
		}
		src := make([]byte, span)
		for i := range src {
			src[i] = byte(i*131 + 17)
		}
		want := make([]byte, l.SizeBytes)
		l.Pack(src, want)
		got := make([]byte, l.SizeBytes)
		if n := plan.Pack(src, got); n != l.SizeBytes {
			t.Fatalf("%s: plan packed %d bytes, want %d", typ.TypeName(), n, l.SizeBytes)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: plan/reference pack diverge at wire byte %d (%d vs %d)",
					typ.TypeName(), i, got[i], want[i])
			}
		}

		// The compiled plan's scatter agrees with the block-list scatter,
		// bytes outside the blocks included (both destinations start
		// from the same fill).
		wire := make([]byte, l.SizeBytes)
		for i := range wire {
			wire[i] = byte(i*29 + 5)
		}
		wantDst, gotDst := make([]byte, span), make([]byte, span)
		for i := range wantDst {
			wantDst[i] = byte(i*7 + 3)
		}
		copy(gotDst, wantDst)
		l.Unpack(wire, wantDst)
		if n := plan.Unpack(wire, gotDst); n != l.SizeBytes {
			t.Fatalf("%s: plan unpacked %d bytes, want %d", typ.TypeName(), n, l.SizeBytes)
		}
		for i := range wantDst {
			if gotDst[i] != wantDst[i] {
				t.Fatalf("%s: plan/reference unpack diverge at byte %d (%d vs %d)",
					typ.TypeName(), i, gotDst[i], wantDst[i])
			}
		}
	})
}
