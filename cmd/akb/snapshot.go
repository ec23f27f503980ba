package main

import (
	"flag"
	"fmt"

	"akb/internal/store"
)

// cmdSnapshot inspects and migrates store snapshot files. Subcommands:
//
//	akb snapshot verify <file>...   integrity-check header, count, checksum
//	akb snapshot info   <file>...   like verify, but keeps going and prints a row per file
//	akb snapshot convert -o <out> [-to v3|v2] [-shards N] <file>
//	                                re-encode a snapshot in another codec
//
// verify exits non-zero on the first bad file, which makes it usable as
// a deploy gate: `akb snapshot verify kb.akb && akb serve -snapshot kb.akb`.
// info and verify print the same uniform description for every codec
// version: codec, version, fact count, shard count, checksum status.
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
			fmt.Printf("%s: %s\n", path, describeSnapshot(info))
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

// describeSnapshot renders one uniform row for any codec version, e.g.
//
//	codec=binary version=3 facts=3184 shards=8 checksum=verified
func describeSnapshot(info store.SnapshotInfo) string {
	return fmt.Sprintf("codec=%s version=%d facts=%d shards=%d checksum=%s",
		info.Codec, info.Version, info.Facts, info.Shards, info.ChecksumStatus())
}

// snapshotConvert re-encodes a snapshot, migrating between the JSON (v2)
// and binary (v3) codecs. -shards only matters for binary output, where
// it fixes the stored segment layout (0 keeps the source layout for
// binary inputs, or DefaultShards for JSON ones).
func snapshotConvert(args []string) error {
	fs := flag.NewFlagSet("snapshot convert", flag.ContinueOnError)
	out := fs.String("o", "", "output snapshot path (required)")
	to := fs.String("to", "v3", "target codec: v3 (binary, sharded) or v2 (JSON)")
	shards := fs.Int("shards", 0, "shard count for binary output: 0 keeps the source layout (8 for JSON sources)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: akb snapshot convert -o <out> [-to v3|v2] [-shards N] <file>")
	}
	in := fs.Arg(0)
	src, info, err := openSnapshot(in, *shards)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	fmt.Printf("%s: %s\n", in, describeSnapshot(info))
	switch *to {
	case "v3", "binary":
		err = src.WriteBinarySnapshotFile(*out)
	case "v2", "json":
		err = src.WriteSnapshotFile(*out)
	default:
		return fmt.Errorf("akb snapshot convert: unknown target codec %q (want v3 or v2)", *to)
	}
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	outInfo, err := store.VerifySnapshotFile(*out)
	if err != nil {
		return fmt.Errorf("convert: wrote %s but it fails verification: %w", *out, err)
	}
	fmt.Printf("%s: %s\n", *out, describeSnapshot(outInfo))
	return nil
}
