package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"gpujoule/internal/sim"
)

// pinned is the sha256 of each output the benchmark checks byte for byte,
// keyed by pinKey: the paper_report markdown, and the sim.Result JSON of
// each single_point application. The scales the benchmark and its smoke
// test run at are both pinned. A change that alters these bytes must say
// why, like any change to the repository's goldens, and re-pin them.
var pinned = map[string]string{
	"paper_report@0.05":             "319227c53dab34ff320e11d4bdcebb06e7c90dbce6922d01e1bde1efbe79f5f7",
	"paper_report@0.005":            "9660ed9c8852af6ae3bc7ca06f5e3801d3b64a1ebdadb581863cf7a9c16bb39d",
	"single_point/Lulesh-190@0.5":   "4fb33712265c4a6dec4b52f022dac2bcade04f7d607aa2031674ea3b1b01e500",
	"single_point/MiniAMR@0.5":      "89fedda54702001da136c7a8dab183a71bdf69cc6233056796cc7d4b1db13542",
	"single_point/Lulesh-190@0.005": "de32d0feaa88c3205c99f53449e66ce1d5c39db588193044dba675bcdc19a63c",
	"single_point/MiniAMR@0.005":    "d6533bb363fc16844d8da7e1c0ea9cb3d181f1e9a02ceb38217f29d3d55f6139",
}

// errMismatch reports an output that differs from its reference.
var errMismatch = errors.New("output mismatch")

func pinKey(output string, scale float64) string {
	return output + "@" + strconv.FormatFloat(scale, 'g', -1, 64)
}

// checkPinned compares data's sha256 with the pinned one.
func checkPinned(key string, data []byte) error {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	want := pinned[key]
	if want == "" {
		return fmt.Errorf("%w: no sha256 pinned for %s (this run produced %s)", errMismatch, key, got)
	}
	if got != want {
		return fmt.Errorf("%w: %s has sha256 %s, pinned %s", errMismatch, key, got, want)
	}
	return nil
}

// checkResult compares a simulation result's JSON with its pin.
func checkResult(key string, res *sim.Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return checkPinned(key, data)
}
