package main

import (
	"bytes"
	"strings"
	"testing"

	"nexus/internal/lint"
)

func TestParseFlagsDefaults(t *testing.T) {
	for _, args := range [][]string{nil, {"./..."}} {
		if err := parseFlags(args, &bytes.Buffer{}); err != nil {
			t.Errorf("parseFlags(%q) = %v", args, err)
		}
	}
}

// TestParseFlagsBadFlag: nexus-lint has no flags, so every flag —
// including the retired -rule, -json and -v — is refused.
func TestParseFlagsBadFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-rule", "-json", "-v"} {
		if err := parseFlags([]string{flag, "x"}, &bytes.Buffer{}); err == nil {
			t.Errorf("flag %s accepted", flag)
		}
	}
}

// TestUsageListsEveryRule keeps the -h text in sync with the rule set.
func TestUsageListsEveryRule(t *testing.T) {
	var errOut bytes.Buffer
	if err := parseFlags([]string{"-h"}, &errOut); err == nil {
		t.Fatal("-h should return flag.ErrHelp")
	}
	for _, c := range lint.Checkers() {
		if !strings.Contains(errOut.String(), c.Rule) {
			t.Errorf("usage does not mention rule %s", c.Rule)
		}
	}
}
