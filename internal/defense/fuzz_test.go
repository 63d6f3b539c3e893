package defense

import (
	"strings"
	"testing"
)

// FuzzParsePolicy hardens the SELinux rule parser: arbitrary input must
// produce either a valid policy or an error — never a panic, and a parsed
// policy must never grant an unlisted command.
func FuzzParsePolicy(f *testing.F) {
	f.Add("allowxperm untrusted_app kgsl_device ioctl { 0x38 }")
	f.Add("allowxperm a kgsl_device ioctl { 0x30-0x3F }\nneverallow a kgsl_device ioctl { 0x3B }")
	f.Add("# comment only")
	f.Add("")
	f.Add("allowxperm \x00 kgsl_device ioctl { 99999999999 }")
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := ParsePolicy(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Default deny: a domain that never appears in the document must
		// not be granted anything.
		if p.AllowIoctl("fuzz-nonexistent-domain", 0x3B) {
			t.Fatal("unlisted domain granted access")
		}
	})
}
