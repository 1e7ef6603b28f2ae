package socket

import (
	"encoding/binary"

	"repro/internal/coher"
)

// AppendState appends the multi-socket protocol-visible state to buf
// for cross-mode comparison (the serial-equivalence suite fingerprints
// a run's final state under both schedulers): every socket's engine
// state, the shared home-memory metadata, the socket-level directory
// cache, and — under the MemoryBackup scheme — the authoritative backup
// map in sorted address order, so the encoding is independent of map
// iteration order. Clocks, statistics, and DRAM/NoC timing state are
// excluded, as in core.System.AppendState.
func (sys *System) AppendState(buf []byte) []byte {
	for _, s := range sys.Sockets {
		buf = s.Engine.AppendState(buf)
		buf = append(buf, 0xfd) // socket separator
	}
	buf = sys.mem.AppendState(buf)
	buf = append(buf, 0xfe)
	buf = sys.dirCache.AppendState(buf, appendSocketEntry)
	buf = append(buf, 0xfe)
	for _, a := range sys.backupAddrs() {
		w := sys.backup[a]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
		buf = appendSocketEntry(buf, &w)
	}
	return buf
}

// appendSocketEntry encodes a packed entry field by field, so
// fingerprints do not depend on the packed layout.
func appendSocketEntry(buf []byte, w *uint64) []byte {
	e := coher.UnpackSocketEntry(*w)
	buf = append(buf, byte(e.State), byte(e.Owner))
	return binary.LittleEndian.AppendUint64(buf, uint64(e.Sharers))
}
