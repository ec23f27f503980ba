package main

import (
	"flag"
	"fmt"

	"akb/internal/store"
)

// cmdSnapshot inspects and re-shards store snapshot files. Subcommands:
//
//	akb snapshot verify <file>...   integrity-check header and checksum
//	akb snapshot info   <file>...   like verify, but keeps going and prints a row per file
//	akb snapshot convert -o <out> [-shards N] <file>
//	                                rewrite a snapshot in another shard layout
//
// verify exits non-zero on the first bad file, which makes it usable as
// a deploy gate: `akb snapshot verify kb.akb && akb serve -snapshot kb.akb`.
// info and verify print the same description of a verified file:
// version, fact count, stored shard count.
func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: akb snapshot verify|info|convert ...")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "verify", "info":
		if len(rest) == 0 {
			return fmt.Errorf("akb snapshot %s: no snapshot files given", sub)
		}
		bad := 0
		for _, path := range rest {
			info, err := store.VerifySnapshotFile(path)
			if err != nil {
				if sub == "verify" {
					return fmt.Errorf("verify: %w", err)
				}
				bad++
				fmt.Printf("%s: CORRUPT: %v\n", path, err)
				continue
			}
			fmt.Printf("%s: %s\n", path, info)
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d snapshot(s) failed verification", bad, len(rest))
		}
		return nil
	case "convert":
		return snapshotConvert(rest)
	default:
		return fmt.Errorf("akb snapshot: unknown subcommand %q (want verify, info or convert)", sub)
	}
}

// openSnapshot loads a snapshot file as the store itself, which the
// commands that write one, or report its layout, need beyond the Querier
// the file opens as.
func openSnapshot(path string, shards int) (*store.Sharded, store.SnapshotInfo, error) {
	q, info, err := store.OpenSnapshotFile(path, shards)
	if err != nil {
		return nil, info, err
	}
	return q.(*store.Sharded), info, nil
}

// snapshotReloader is a serve.Config.Reloader that re-reads the file.
func snapshotReloader(path string, shards int) func() (store.Querier, error) {
	return func() (store.Querier, error) {
		q, _, err := store.OpenSnapshotFile(path, shards)
		return q, err
	}
}

// snapshotConvert rewrites a snapshot with another stored shard layout.
func snapshotConvert(args []string) error {
	fs := flag.NewFlagSet("snapshot convert", flag.ContinueOnError)
	out := fs.String("o", "", "output snapshot path (required)")
	shards := fs.Int("shards", 0, "stored shard count of the output: 0 keeps the source layout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: akb snapshot convert -o <out> [-shards N] <file>")
	}
	in := fs.Arg(0)
	src, info, err := openSnapshot(in, *shards)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	fmt.Printf("%s: %s\n", in, info)
	if err := src.WriteBinarySnapshotFile(*out); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	outInfo, err := store.VerifySnapshotFile(*out)
	if err != nil {
		return fmt.Errorf("convert: wrote %s but it fails verification: %w", *out, err)
	}
	fmt.Printf("%s: %s\n", *out, outInfo)
	return nil
}
