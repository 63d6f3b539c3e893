package defense

import (
	"errors"
	"strings"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/kgsl"
)

func TestParsePolicyBasics(t *testing.T) {
	p, err := ParsePolicy(strings.NewReader(`
# comment
allowxperm untrusted_app kgsl_device ioctl { 0x38 0x3A }
allowxperm shell kgsl_device ioctl { 0x30-0x3B }
neverallow untrusted_app kgsl_device ioctl { 0x3B }
`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.AllowIoctl("untrusted_app", 0x38) {
		t.Error("explicit allow denied")
	}
	if p.AllowIoctl("untrusted_app", 0x3B) {
		t.Error("neverallow not enforced")
	}
	if p.AllowIoctl("untrusted_app", 0x39) {
		t.Error("unlisted command allowed")
	}
	if !p.AllowIoctl("shell", 0x3B) {
		t.Error("range allow failed")
	}
	if p.AllowIoctl("radio", 0x38) {
		t.Error("unknown domain allowed")
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := []string{
		"allowxperm untrusted_app kgsl_device ioctl",   // missing set
		"allowxperm a kgsl_device ioctl 0x38",          // no braces
		"allowxperm a kgsl_device ioctl { }",           // empty set
		"allowxperm a kgsl_device ioctl { zz }",        // bad number
		"allowxperm a kgsl_device ioctl { 0x3B-0x38 }", // inverted range
		"allowxperm a other_device ioctl { 0x38 }",     // wrong class
		"grant a kgsl_device ioctl { 0x38 }",           // unknown kind
		"allowxperm a kgsl_device read { 0x38 }",       // wrong perm
	}
	for _, c := range cases {
		if _, err := ParsePolicy(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed rule %q", c)
		}
	}
}

func TestGooglePatchPolicyShape(t *testing.T) {
	p := NewGooglePatchPolicy()
	// Apps keep the driver path: GET/PUT/QUERY and command submission.
	for _, nr := range []uint32{0x11, 0x38, 0x39, 0x3A} {
		if !p.AllowIoctl("untrusted_app", nr) {
			t.Errorf("driver ioctl 0x%X blocked for apps", nr)
		}
	}
	// The global block-read is gone for apps, kept for platform tooling.
	if p.AllowIoctl("untrusted_app", 0x3B) {
		t.Error("PERFCOUNTER_READ still allowed for untrusted_app")
	}
	if !p.AllowIoctl("platform_app", 0x3B) || !p.AllowIoctl("shell", 0x3B) {
		t.Error("profilers lost counter access")
	}
}

func TestIoctlPolicyAsKGSLPolicy(t *testing.T) {
	p := NewGooglePatchPolicy()
	k := adreno.CounterKey{Group: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := p.AllowPerfcounterRead(kgsl.UntrustedApp(9), k); !errors.Is(err, kgsl.ErrPerm) {
		t.Fatalf("untrusted app read allowed: %v", err)
	}
	shell := kgsl.ProcContext{PID: 1, UID: 2000, SELinuxContext: "u:r:shell:s0"}
	if err := p.AllowPerfcounterRead(shell, k); err != nil {
		t.Fatalf("shell read denied: %v", err)
	}
	// Degenerate context strings fall back to the raw value (denied).
	weird := kgsl.ProcContext{SELinuxContext: "untrusted_app"}
	if err := p.AllowPerfcounterRead(weird, k); err == nil {
		t.Fatal("raw-context fallback allowed the read")
	}
}
