package defense

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpuleak/internal/adreno"
	"gpuleak/internal/kgsl"
)

// The paper's §9.2 proposes enforcing GPU-counter RBAC through SELinux's
// ioctl command whitelisting ("ioctlcmd" extended permissions, [52]):
// policy rules list, per source domain, which ioctl request numbers a
// process may issue against the GPU device class. This file implements a
// small policy engine over that rule language so the mitigation can be
// expressed the way an Android platform engineer would ship it.
//
// Rule syntax (one rule per line, '#' comments):
//
//	allowxperm <domain> kgsl_device ioctl { 0x38 0x3B }
//	allowxperm <domain> kgsl_device ioctl { 0x30-0x37 }
//	neverallow <domain> kgsl_device ioctl { 0x3B }
//
// Unlisted (domain, command) pairs are denied, matching SELinux's
// default-deny xperm semantics once any xperm rule exists for the class.

// IoctlPolicy is a compiled SELinux-style ioctl whitelist.
type IoctlPolicy struct {
	allow map[string]map[uint32]bool
	never map[string]map[uint32]bool
}

// ParsePolicy compiles a policy document.
func ParsePolicy(r io.Reader) (*IoctlPolicy, error) {
	p := &IoctlPolicy{
		allow: map[string]map[uint32]bool{},
		never: map[string]map[uint32]bool{},
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("selinux: line %d: malformed rule %q", lineNo, line)
		}
		kind, domain, class, perm := fields[0], fields[1], fields[2], fields[3]
		if class != "kgsl_device" || perm != "ioctl" {
			return nil, fmt.Errorf("selinux: line %d: unsupported class/perm %s/%s", lineNo, class, perm)
		}
		cmds, err := parseCmdSet(strings.Join(fields[4:], " "))
		if err != nil {
			return nil, fmt.Errorf("selinux: line %d: %w", lineNo, err)
		}
		var dst map[string]map[uint32]bool
		switch kind {
		case "allowxperm":
			dst = p.allow
		case "neverallow":
			dst = p.never
		default:
			return nil, fmt.Errorf("selinux: line %d: unknown rule kind %q", lineNo, kind)
		}
		if dst[domain] == nil {
			dst[domain] = map[uint32]bool{}
		}
		for _, c := range cmds {
			dst[domain][c] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseCmdSet parses "{ 0x38 0x3A-0x3B }" into command numbers.
func parseCmdSet(s string) ([]uint32, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("command set must be brace-delimited: %q", s)
	}
	var out []uint32
	for _, tok := range strings.Fields(strings.Trim(s, "{} ")) {
		if lo, hi, ok := strings.Cut(tok, "-"); ok {
			a, err := parseCmd(lo)
			if err != nil {
				return nil, err
			}
			b, err := parseCmd(hi)
			if err != nil {
				return nil, err
			}
			if b < a {
				return nil, fmt.Errorf("inverted range %q", tok)
			}
			for c := a; c <= b; c++ {
				out = append(out, c)
			}
			continue
		}
		c, err := parseCmd(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty command set")
	}
	return out, nil
}

func parseCmd(s string) (uint32, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 16)
	if err != nil {
		return 0, fmt.Errorf("bad ioctl command %q", s)
	}
	return uint32(v), nil
}

// AllowIoctl decides whether a domain may issue the ioctl command nr
// (the low byte of the request code). neverallow wins over allowxperm;
// anything unlisted is denied.
func (p *IoctlPolicy) AllowIoctl(domain string, nr uint32) bool {
	if p.never[domain][nr] {
		return false
	}
	return p.allow[domain][nr]
}

// AllowPerfcounterRead implements kgsl.Policy: a counter read requires
// the PERFCOUNTER_READ ioctl (command 0x3B).
func (p *IoctlPolicy) AllowPerfcounterRead(ctx kgsl.ProcContext, k adreno.CounterKey) error {
	if p.AllowIoctl(domainOf(ctx), 0x3B) {
		return nil
	}
	return kgsl.ErrPerm
}

// domainOf extracts the SELinux type (domain) from a full context like
// "u:r:untrusted_app:s0".
func domainOf(ctx kgsl.ProcContext) string {
	parts := strings.Split(ctx.SELinuxContext, ":")
	if len(parts) >= 3 {
		return parts[2]
	}
	return ctx.SELinuxContext
}

// GooglePatchPolicy is the shape of the fix the paper's disclosure led
// to: graphics clients keep the ioctls user-space drivers need (property
// queries, command submission, perfcounter queries), while the global
// PERFCOUNTER_READ is reserved for platform domains.
const GooglePatchPolicy = `
# GPU access for ordinary applications: everything the user-space GL/Vulkan
# driver requires, including reserving counters (GET 0x38 / PUT 0x39) and
# listing them (QUERY 0x3A) — but NOT the global block-read.
allowxperm untrusted_app kgsl_device ioctl { 0x00-0x37 0x38-0x3A 0x3C-0x4F }

# Platform profilers keep full access.
allowxperm platform_app kgsl_device ioctl { 0x00-0x4F }
allowxperm shell        kgsl_device ioctl { 0x00-0x4F }

# Defense in depth: the global counter read is never granted to app domains.
neverallow untrusted_app kgsl_device ioctl { 0x3B }
`

// NewGooglePatchPolicy compiles GooglePatchPolicy.
func NewGooglePatchPolicy() *IoctlPolicy {
	p, err := ParsePolicy(strings.NewReader(GooglePatchPolicy))
	if err != nil {
		panic("defense: built-in policy failed to parse: " + err.Error())
	}
	return p
}
