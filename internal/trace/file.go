package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Save writes a trace file, picking the codec from the extension:
//
//	.csv         text
//	.pcap        libpcap (direction is implicit in the addresses)
//	.txt/.dump   refused: tcpdump text is an import-only format
//	other        binary (.trace, .bin)
//	any + .gz    gzip-wrapped version of the inner extension
//
// ingest.Open reads every file Save writes back as a stream.
func Save(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var w io.Writer = f
	var gz *gzip.Writer
	name := path
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
		name = strings.TrimSuffix(path, ".gz")
	}

	switch {
	case strings.HasSuffix(name, ".csv"):
		err = WriteCSV(w, tr)
	case strings.HasSuffix(name, ".pcap"):
		err = WritePcap(w, tr)
	case strings.HasSuffix(name, ".txt"), strings.HasSuffix(name, ".dump"):
		err = fmt.Errorf("trace: tcpdump text is import-only")
	default:
		err = WriteBinary(w, tr)
	}
	if err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}
