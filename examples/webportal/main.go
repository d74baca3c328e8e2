// webportal runs the client-server architecture of the paper's §6: the
// XSLT stylesheet is applied to the model's XML document in the server
// and the HTML is returned to the browser.
//
//	go run ./examples/webportal [-addr :8080] [-model sales|hospital]
//
// Endpoints:
//
//	/site/index.html   linked multi-page presentation (?focus=<factid>)
//	/single            the one-page presentation
//	/model.xml         the stored XML document
//	/pretty            the raw browser view (no stylesheet)
//	/schema.xsd        the canonical XML Schema
//	/validate          on-demand validation report
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"goldweb"
	"goldweb/internal/core"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	which := flag.String("model", "sales", "model to serve: sales or hospital")
	flag.Parse()

	var m *core.Model
	switch *which {
	case "sales":
		m = goldweb.SampleSales()
	case "hospital":
		m = goldweb.SampleHospital()
	default:
		log.Fatalf("unknown -model %q", *which)
	}

	host, port, err := net.SplitHostPort(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if host == "" {
		host = "localhost"
	}
	srv, err := goldweb.NewServer(m, goldweb.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %q on http://%s/\n", m.Name, net.JoinHostPort(host, port))
	fmt.Println("  /site/index.html  — navigable presentation (Fig. 6)")
	fmt.Println("  /single           — single-page presentation")
	fmt.Println("  /model.xml        — the XML document (Fig. 3)")
	fmt.Println("  /pretty           — raw view without XSLT (Fig. 4)")
	fmt.Println("  /schema.xsd       — the XML Schema")
	fmt.Println("  /validate         — validation report")
	// Ctrl-C or SIGTERM shuts the server down gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, *addr); err != nil {
		log.Fatal(err)
	}
}
