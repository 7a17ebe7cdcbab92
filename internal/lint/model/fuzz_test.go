package model

import "testing"

// FuzzEnvelope runs arbitrary policy source through the //lint:envelope and
// //lint:assert grammars: parseAnnotations and validate may reject anything,
// as EPL211 findings or an error, but must never panic. The checked-in corpus
// (testdata/fuzz/FuzzEnvelope) holds ../testdata/*.epl and drift-negative,
// which panicked in Envelope.set before drift was bounded.
func FuzzEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("longer sources only repeat what shorter ones reach")
		}
		env := DefaultEnvelope()
		parseAnnotations(src, &env)
		env.validate()
	})
}
