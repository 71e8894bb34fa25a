package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the llm4eda binary: invoked
// as `<test binary> serve ...` it runs the CLI instead of the tests, so a
// test can drive a real serve process without building one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeDrainsOnSIGTERMAtBanner pins serve's readiness contract: once
// the "listening on" banner is out, SIGTERM drains the server and it exits
// 0. A client may signal the moment it reads the banner, so the signal
// handler must already be installed when the banner is printed.
func TestServeDrainsOnSIGTERMAtBanner(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for try := 1; try <= 20; try++ {
		cmd := exec.Command(exe, "serve", "-addr", "127.0.0.1:0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// A child that never prints its banner or never exits is killed,
		// so a regression fails here instead of hanging the suite.
		watchdog := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
		var out strings.Builder
		signalled := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			out.WriteString(line + "\n")
			if !signalled && strings.Contains(line, "listening on ") {
				// A failed signal leaves signalled false: reported below.
				signalled = cmd.Process.Signal(syscall.SIGTERM) == nil
			}
		}
		err = cmd.Wait()
		watchdog.Stop()
		switch {
		case !signalled:
			t.Fatalf("try %d: no banner, or SIGTERM failed (exit %v)\nstdout:\n%s\nstderr:\n%s",
				try, err, out.String(), stderr.String())
		case err != nil:
			t.Fatalf("try %d: serve exited with %v after SIGTERM at its banner\nstdout:\n%s\nstderr:\n%s",
				try, err, out.String(), stderr.String())
		case !strings.Contains(out.String(), "drained, bye"):
			t.Fatalf("try %d: no clean-drain marker\nstdout:\n%s", try, out.String())
		}
	}
}
