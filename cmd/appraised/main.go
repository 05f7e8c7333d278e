// Command appraised is a standalone appraiser daemon: it listens for
// RATS messages over TCP, appraises submitted evidence, issues signed
// certificates, stores them by nonce, and serves later retrievals — the
// Appraiser box of the paper's Fig. 1/Fig. 2 as a network service.
//
// Golden values and trusted attester keys are provisioned from a simple
// text config (one directive per line):
//
//	key    <signer> <hex-ed25519-pub>
//	golden <place> <target> <detail> <hex-digest>
//
// Usage:
//
//	appraised -listen :7421 [-config golden.conf] [-strict]
//	appraised -listen :7421 -telemetry :9465 -trace 8   # metrics + 1-in-8 flow tracing
//
// The observability flags (-telemetry, -trace, -recorder*, -profile*)
// are the shared set of cmd/internal/bootstrap.
package main

import (
	"bufio"
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pera/cmd/internal/bootstrap"
	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/rot"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7421", "TCP listen address")
		cfgPath  = flag.String("config", "", "provisioning file (key/golden directives)")
		strict   = flag.Bool("strict", false, "fail measurements without golden values")
		seed     = flag.String("seed", "appraised", "deterministic identity seed")
		obsFlags = bootstrap.Register(flag.CommandLine,
			bootstrap.Telemetry|bootstrap.Trace|bootstrap.Recorder|bootstrap.Profile)
	)
	flag.Parse()

	appr := appraiser.New("appraised", []byte(*seed))
	appr.Strict = *strict
	if *cfgPath != "" {
		if err := provision(appr, *cfgPath); err != nil {
			fatal(err)
		}
	}

	o, err := obsFlags.Setup(bootstrap.Options{Name: "appraised", Service: "appraised", Log: os.Stdout})
	if err != nil {
		fatal(err)
	}
	defer o.Close()
	appr.SetTracer(o.Tracer)
	if o.Registry != nil {
		appr.Instrument(o.Registry)
	}
	if err := o.Start(); err != nil {
		fatal(err)
	}

	ln, err := rats.ListenAndServe(*listen, loggingHandler(appr.Handler()))
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	fmt.Printf("appraised: listening on %s (strict=%v)\n", ln.Addr(), *strict)
	fmt.Printf("appraised: verification key %s\n", hex.EncodeToString(appr.Public()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("appraised: shutting down")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "appraised: %v\n", err)
	os.Exit(1)
}

func loggingHandler(h rats.Handler) rats.Handler {
	return func(req *rats.Message) *rats.Message {
		resp := h(req)
		fmt.Printf("appraised: %v session=%d nonce=%x -> %v\n", req.Type, req.Session, short(req.Nonce), resp.Type)
		return resp
	}
}

func short(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

func provision(appr *appraiser.Appraiser, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "key":
			if len(fields) != 3 {
				return fmt.Errorf("%s:%d: key <signer> <hex-pub>", path, lineNo)
			}
			pub, err := hex.DecodeString(fields[2])
			if err != nil || len(pub) != ed25519.PublicKeySize {
				return fmt.Errorf("%s:%d: bad public key", path, lineNo)
			}
			appr.RegisterKey(fields[1], ed25519.PublicKey(pub))
		case "golden":
			if len(fields) != 5 {
				return fmt.Errorf("%s:%d: golden <place> <target> <detail> <hex-digest>", path, lineNo)
			}
			detail, err := parseDetail(fields[3])
			if err != nil {
				return fmt.Errorf("%s:%d: %v", path, lineNo, err)
			}
			raw, err := hex.DecodeString(fields[4])
			if err != nil || len(raw) != rot.DigestSize {
				return fmt.Errorf("%s:%d: bad digest", path, lineNo)
			}
			var d rot.Digest
			copy(d[:], raw)
			appr.SetGolden(fields[1], fields[2], detail, d)
		default:
			return fmt.Errorf("%s:%d: unknown directive %q", path, lineNo, fields[0])
		}
	}
	return sc.Err()
}

func parseDetail(s string) (evidence.Detail, error) {
	for _, d := range evidence.Details() {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown detail %q", s)
}
