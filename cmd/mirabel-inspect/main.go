// mirabel-inspect is the User Interface component's command-line
// surrogate (paper §3: "physical users can interact with LEDMS, set
// parameters, and analyze the data"): it opens a node's durable store
// read-only and prints its two fact tables — their cardinalities, the
// flex-offer lifecycle breakdown, the offers with their schedules and
// per-actor energy totals. Inspection never mutates the store: a
// mistyped path is an error, not a fabricated empty store.
//
//	mirabel-inspect -data /tmp/brp1
//	mirabel-inspect -data /tmp/brp1 -offers -measurements
//
// The one write it can perform is explicit: -prune-before runs the
// store's retention sweep (WAL-logged) and reports what fell.
//
//	mirabel-inspect -data /tmp/brp1 -prune-before 480
//
// The store WAL and the settlement ledger are binary files; -dump
// replays one of them read-only, frame by frame, and prints each record
// as one JSON object (file, offset, tag, decoded record) — `| jq` as
// before. In the WAL, an offer update that kept the offer and its owner
// is an "offer_transitions" record (id, state and schedule), or an
// "offer_states" record (id and state) when it kept the schedule too:
// the offer's schedule is then whatever its previous transition set. A
// rejected offer the node's intake acked is an "offers_if_absent"
// record: it was stored only if no record held its id. An "actors"
// record is a row an older build logged on every node start; its record
// is the row's payload text as that build wrote it. A frame of a tag
// this build refuses to replay (a retired table's, or one it does not
// know) stops the listing with the error the store's open reports.
//
//	mirabel-inspect -data /tmp/brp1 -dump wal
//	mirabel-inspect -data /tmp/brp1 -dump ledger
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"mirabel/internal/flexoffer"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// dumpLine is one record of a -dump listing.
type dumpLine struct {
	File   string `json:"file"`
	Offset int64  `json:"offset"`
	Tag    string `json:"tag"`
	Record any    `json:"record"`
}

// dumpLog replays the WAL or the ledger of the node directory dir
// through store.ReplayFrames — nothing is opened for writing, no torn
// tail is cut — and writes one JSON object per intact record to w.
// Bytes past the file's intact prefix are reported on notes.
func dumpLog(w, notes io.Writer, dir, which string) error {
	var path, magic string
	var decode func(tag byte, payload []byte) (dumpLine, error)
	switch which {
	case "wal":
		path, magic = store.WALPath(dir), store.WALMagic
		decode = func(tag byte, payload []byte) (dumpLine, error) {
			table, rec, err := store.DecodeWALRecord(tag, payload)
			return dumpLine{Tag: table, Record: rec}, err
		}
	case "ledger":
		// Entries are printed as stored; auditing the chain they form
		// is settle.VerifyFile's job.
		path, magic = filepath.Join(dir, "ledger.log"), settle.LedgerMagic
		decode = func(tag byte, payload []byte) (dumpLine, error) {
			e, err := settle.DecodeLedgerRecord(tag, payload)
			return dumpLine{Tag: string(e.Kind), Record: e}, err
		}
	default:
		return fmt.Errorf("-dump %q: want wal or ledger", which)
	}
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	out := json.NewEncoder(w)
	intact, err := store.ReplayFrames(path, magic, func(off int64, tag byte, payload []byte) error {
		line, err := decode(tag, payload)
		if err != nil {
			return fmt.Errorf("%s offset %d: %w", path, off, err)
		}
		line.File, line.Offset = filepath.Base(path), off
		return out.Encode(line)
	})
	if err != nil {
		return err
	}
	if fi.Size() > intact {
		fmt.Fprintf(notes, "%s: %d bytes of torn tail after offset %d\n", path, fi.Size()-intact, intact)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mirabel-inspect: ")
	dataDir := flag.String("data", "", "store directory")
	showOffers := flag.Bool("offers", false, "list flex-offer records")
	showMeasurements := flag.Bool("measurements", false, "summarize measurements per actor")
	pruneBefore := flag.Int64("prune-before", -1, "prune measurements with slot < this value (opens the store writable)")
	dump := flag.String("dump", "", "print every record of a binary log as JSON lines and exit: wal | ledger")
	flag.Parse()
	if *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *dump != "" {
		if err := dumpLog(os.Stdout, os.Stderr, *dataDir, *dump); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Validate the path read-only first: even the prune path must not
	// fabricate an empty store out of a typo.
	st, err := store.OpenReadOnly(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	if *pruneBefore >= 0 {
		if err := st.Close(); err != nil {
			log.Fatal(err)
		}
		st, err = store.Open(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer st.Close()

	if *pruneBefore >= 0 {
		n, err := st.PruneMeasurements(flexoffer.Time(*pruneBefore))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pruned %d measurements before slot %d\n", n, *pruneBefore)
	}

	summarize(os.Stdout, st, *dataDir, *showOffers, *showMeasurements)
}

// summarize writes the store's summary: the fact tables' cardinalities
// and the flex-offer lifecycle breakdown, whose per-state lines sum to
// the offer count; with offers, every offer record; with measurements,
// the metered energy per actor, in actor order.
func summarize(w io.Writer, st *store.Store, dir string, offers, measurements bool) {
	stats := st.Stats()
	fmt.Fprintf(w, "store %s\n", dir)
	fmt.Fprintf(w, "  facts: %d measurements, %d offers\n", stats.Measurements, stats.Offers)

	if counts := st.CountOffersByState(); len(counts) > 0 {
		fmt.Fprintln(w, "  flex-offer lifecycle:")
		for _, state := range []store.OfferState{
			store.OfferReceived, store.OfferAccepted, store.OfferScheduled,
			store.OfferExecuted, store.OfferExpired, store.OfferRejected,
			store.OfferCancelled,
		} {
			if n := counts[state]; n > 0 {
				fmt.Fprintf(w, "    %-10s %d\n", state, n)
			}
		}
	}

	if offers {
		fmt.Fprintln(w, "  offers:")
		for _, rec := range st.Offers(store.OfferFilter{}) {
			f := rec.Offer
			fmt.Fprintf(w, "    #%-6d %-10s owner=%-16s window=[%d,%d] slices=%d energy=[%.1f,%.1f]kWh",
				f.ID, rec.State, rec.Owner, f.EarliestStart, f.LatestStart, f.NumSlices(),
				f.MinTotalEnergy(), f.MaxTotalEnergy())
			if rec.Schedule != nil {
				fmt.Fprintf(w, " scheduled@%d (%.1f kWh)", rec.Schedule.Start, rec.Schedule.TotalEnergy())
			}
			fmt.Fprintln(w)
		}
	}

	if measurements {
		fmt.Fprintln(w, "  energy per actor:")
		perActor := map[string]float64{}
		var lo, hi flexoffer.Time
		first := true
		for _, m := range st.Measurements(store.MeasurementFilter{}) {
			perActor[m.Actor] += m.KWh
			if first || m.Slot < lo {
				lo = m.Slot
			}
			if first || m.Slot > hi {
				hi = m.Slot
			}
			first = false
		}
		actors := make([]string, 0, len(perActor))
		for actor := range perActor {
			actors = append(actors, actor)
		}
		sort.Strings(actors)
		for _, actor := range actors {
			fmt.Fprintf(w, "    %-20s %.2f kWh\n", actor, perActor[actor])
		}
		if !first {
			fmt.Fprintf(w, "    slot range [%d, %d]\n", lo, hi)
		}
	}
}
