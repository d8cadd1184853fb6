package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
)

// The node's two logs (the store WAL here, which also takes every acked
// intake event, and the settlement ledger in internal/settle) share one
// file layout:
//
//	file   = magic frame*
//	magic  = 8 bytes naming the log kind; the last byte is its version
//	frame  = len uint32 LE | crc uint32 LE | tag byte | payload
//
// len counts tag+payload (so it is never 0) and crc is CRC-32C over the
// same bytes. What a tag means and how its payload is laid out belongs
// to the log's owner; this layer only frames, checks and replays.
//
// One lifetime rule: a log is appended to while its owner runs and read
// exactly once, by OpenGroupLog, before the first append. Nothing reads a
// log that is open for appending (the ledger's audit walk holds the
// ledger lock, so nothing appends under it).
//
// One torn-tail rule covers every reader: the intact prefix ends at the
// first frame that is short, overlong for the file, zero-length or fails
// its checksum, and nothing past that point is ever interpreted —
// without a trustworthy length there is no way to find the next frame.
// OpenGroupLog cuts that tail off before anything is appended behind it.
//
// A crash mid-append tears the tail; it does not break a frame that has
// whole bytes behind it. ReplayFrames names that case — a frame that is
// all there by its own length, fails its checksum, and is not the last
// thing in the file — ErrDamaged, and the log's owner chooses: the WAL, a
// recovery log, drops the damaged frame and what follows like a torn
// tail, because a short history beats none; the ledger, whose entries are
// evidence, refuses to open.
//
// One versioning rule: a change to the frame layout or to any payload's
// field order bumps the magic's version byte, and a reader refuses every
// version but its own with ErrLogFormat — no fallback reader. A new tag
// is neither: it keeps the version, so files written before it still
// open, and an older reader refuses a file holding it as an unknown tag
// instead of misreading it. In
// particular a file that does not start with the magic (say a JSON-lines
// log from before the binary format) is never "all torn tail": it is
// left untouched and reported.

// LogHeaderLen is the length of a binary log's magic.
const LogHeaderLen = 8

// frameHeaderLen is len+crc.
const frameHeaderLen = 8

// ErrLogFormat is wrapped by ReplayFrames when a non-empty file does not
// start with the expected magic and version.
var ErrLogFormat = errors.New("store: unsupported log format")

// ErrDamaged is wrapped by ReplayFrames, next to the intact prefix's end,
// when the frame there fails its checksum with bytes behind it.
var ErrDamaged = errors.New("store: log damaged before its tail")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame starts a frame with the given tag at the end of dst and
// returns the extended buffer and the frame's mark; the caller appends
// the payload and then calls EndFrame with the same mark.
func BeginFrame(dst []byte, tag byte) ([]byte, int) {
	mark := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0, tag), mark
}

// EndFrame completes the frame begun at mark by filling in its length
// and checksum.
func EndFrame(dst []byte, mark int) []byte {
	body := dst[mark+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[mark:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[mark+4:], crc32.Checksum(body, crcTable))
	return dst
}

// ReplayFrames streams the intact frames of the log at path to apply
// and returns the offset just past the last one — the end of the intact
// prefix. payload aliases a buffer reused for the next frame. A missing
// or empty file is an empty log (offset 0); a file that ends inside the
// magic is a torn first write (offset 0); any other file not starting
// with magic fails with ErrLogFormat. An error from apply aborts the
// walk and is returned with the offset of the frame it refused;
// ErrDamaged comes with the offset a lenient caller may cut at.
func ReplayFrames(path, magic string, apply func(off int64, tag byte, payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open log for replay: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat log for replay: %w", err)
	}
	size := fi.Size()
	var head [LogHeaderLen]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, fmt.Errorf("store: read log header: %w", err)
	}
	if n < LogHeaderLen {
		if strings.HasPrefix(magic, string(head[:n])) {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: %s does not start with %q", ErrLogFormat, path, magic)
	}
	if string(head[:]) != magic {
		return 0, fmt.Errorf("%w: %s starts with %q, want %q", ErrLogFormat, path, head[:], magic)
	}
	off := int64(LogHeaderLen)
	r := bufio.NewReaderSize(f, 64<<10)
	var hdr [frameHeaderLen]byte
	var buf []byte
	for off+frameHeaderLen <= size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, fmt.Errorf("store: scan log: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if n == 0 || off+frameHeaderLen+n > size {
			break
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return off, fmt.Errorf("store: scan log: %w", err)
		}
		if crc32.Checksum(buf, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
			if behind := size - (off + frameHeaderLen + n); behind > 0 {
				return off, fmt.Errorf("%w: %s: the frame at offset %d fails its checksum with %d bytes behind it", ErrDamaged, path, off, behind)
			}
			break
		}
		if err := apply(off, buf[0], buf[1:]); err != nil {
			return off, err
		}
		off += frameHeaderLen + n
	}
	return off, nil
}

// truncateTail cuts the log at path down to its intact prefix — an
// offset ReplayFrames returned without error — and reports how many
// bytes a torn write had left past it. A missing file is fine.
func truncateTail(path string, intact int64) (int64, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) || (err == nil && fi.Size() <= intact) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if err := os.Truncate(path, intact); err != nil {
		return 0, fmt.Errorf("store: truncate torn log tail: %w", err)
	}
	return fi.Size() - intact, nil
}
