//! A minimal loopback HTTP listener for the operational endpoints.
//!
//! Deliberately tiny: HTTP/1.0, `Connection: close`, GET only. The
//! default [`MetricsServer::start`] serves the exposition on `/` and
//! `/metrics`; [`MetricsServer::start_with_routes`] lets the daemon add
//! side-doors (such as `/healthz`) without growing a framework — a
//! route is a closure from path to optional [`HttpResponse`], anything
//! unrouted is 404. The accept loop runs on one background thread in
//! non-blocking mode so shutdown is a flag-flip plus a join — no
//! self-connect tricks, no extra threads per connection. Scrape traffic
//! (one request every few seconds from one Prometheus plus the odd
//! readiness probe) never needs more.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a route handler returns for a path it owns.
pub struct HttpResponse {
    /// HTTP status code (200, 503, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A 200 with the Prometheus text-exposition content type.
    pub fn exposition(body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }
}

/// A running metrics listener; dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the accept loop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `render()`'s output
    /// as `text/plain; version=0.0.4` on every GET to `/` or `/metrics`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start<F>(addr: &str, render: F) -> std::io::Result<MetricsServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        MetricsServer::start_with_routes(addr, move |path| {
            (path == "/metrics" || path == "/").then(|| HttpResponse::exposition(render()))
        })
    }

    /// Binds `addr` and dispatches every GET through `routes`: the
    /// closure returns `Some(response)` for paths it serves and `None`
    /// for a 404. Non-GET methods are rejected with 405 before routing.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_with_routes<R>(addr: &str, routes: R) -> std::io::Result<MetricsServer>
    where
        R: Fn(&str) -> Option<HttpResponse> + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("nqpv-metrics".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => handle_conn(stream, &routes),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            })
            .expect("spawn metrics thread");
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

fn handle_conn<R: Fn(&str) -> Option<HttpResponse>>(mut stream: TcpStream, routes: &R) {
    // The accept loop is non-blocking; per-connection I/O should block,
    // briefly.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut read = 0usize;
    // Read until the header terminator (scrapers send tiny requests; we
    // only need the request line).
    while read < buf.len() {
        match stream.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => {
                read += n;
                if buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf[..read]);
    let line = request.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let path = path.split('?').next().unwrap_or("");
    let response = if method != "GET" {
        "HTTP/1.0 405 Method Not Allowed\r\nConnection: close\r\n\r\n".to_string()
    } else if let Some(resp) = routes(path) {
        format!(
            "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            resp.status,
            status_reason(resp.status),
            resp.content_type,
            resp.body.len(),
            resp.body
        )
    } else {
        "HTTP/1.0 404 Not Found\r\nConnection: close\r\n\r\n".to_string()
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_404s_elsewhere() {
        let server =
            MetricsServer::start("127.0.0.1:0", || "a_total 1\n".to_string()).expect("bind");
        let addr = server.addr();
        let ok = get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
        assert!(ok.ends_with("a_total 1\n"), "{ok}");
        let root = get(addr, "/");
        assert!(root.contains("a_total 1\n"));
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        // Shutdown joins the accept thread (hangs the test if the stop
        // flag is broken).
        server.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let server = MetricsServer::start("127.0.0.1:0", String::new).expect("bind");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 405"), "{out}");
    }

    #[test]
    fn routed_server_dispatches_by_path() {
        let server = MetricsServer::start_with_routes("127.0.0.1:0", |path| match path {
            "/healthz" => Some(HttpResponse::text(200, "ok\n".into())),
            "/version" => Some(HttpResponse::text(200, "1\n".into())),
            "/busy" => Some(HttpResponse::text(503, "draining\n".into())),
            _ => None,
        })
        .expect("bind");
        let addr = server.addr();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");
        // The query string is not part of the routed path.
        let version = get(addr, "/version?verbose=1");
        assert!(version.contains("text/plain"), "{version}");
        assert!(version.ends_with("\n1\n"), "{version}");
        let busy = get(addr, "/busy");
        assert!(
            busy.starts_with("HTTP/1.0 503 Service Unavailable"),
            "{busy}"
        );
        let missing = get(addr, "/metrics"); // unrouted here → 404
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        server.shutdown();
    }
}
