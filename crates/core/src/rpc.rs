//! Request/reply on top of the IPL's unidirectional message channels —
//! the pattern Ibis uses to build RMI over send/receive ports (paper §5:
//! "Ibis currently implements four application programming models on top
//! of IPL: RMI, ...").
//!
//! A client creates its own private receive port for responses and tells
//! the server its name in every request; the server lazily opens a send
//! port back. Both directions are ordinary netgrid connections, so RPC
//! transparently crosses firewalls and NATs with whatever establishment
//! methods the decision tree picks — the request may even travel a spliced
//! link while the response comes back through a proxy.

use gridsim_net::SimMutex;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use crate::drivers::StackSpec;
use crate::link::Pending;
use crate::node::GridNode;
use crate::port::SendPort;

/// A request handler: bytes in, bytes out.
pub type Handler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// Serve `service_name` on this node. Each request runs on its own task,
/// so slow handlers do not stall the port. Returns once the service is
/// registered in the name service.
pub fn serve(node: &GridNode, service_name: &str, handler: Handler) -> io::Result<()> {
    let rp = node.create_receive_port(service_name, StackSpec::plain())?;
    let node = node.clone();
    let service = service_name.to_string();
    // Reply send ports are cached: one connection back per client port.
    type ReplyPorts = HashMap<String, Arc<SimMutex<SendPort>>>;
    let replies: Arc<Mutex<ReplyPorts>> = Arc::new(Mutex::new(HashMap::new()));
    let sched = node.host().net().sched().clone();
    let sched2 = sched.clone();
    // `loop + let-else` reads better than while-let here: three fallible
    // bindings with distinct control flow.
    #[allow(clippy::while_let_loop)]
    sched.spawn_daemon(format!("rpc-serve-{service}"), move || loop {
        let Ok(mut m) = rp.receive() else { break };
        let Ok(reply_to) = m.read_str() else { continue };
        let Ok(req_id) = m.read_u64() else { continue };
        let payload = m.remaining().to_vec();
        let handler = Arc::clone(&handler);
        let node = node.clone();
        let replies = Arc::clone(&replies);
        sched2.spawn_daemon("rpc-handler", move || {
            let response = handler(&payload);
            let back = {
                let mut map = replies.lock();
                Arc::clone(
                    map.entry(reply_to.clone())
                        .or_insert_with(|| Arc::new(SimMutex::new(node.create_send_port()))),
                )
            };
            let mut port = back.lock();
            if port.connection_count() == 0 && port.connect(&reply_to).is_err() {
                return; // client gone
            }
            let mut msg = port.message();
            msg.write_u64(req_id);
            msg.write_bytes(&response);
            let _ = msg.finish();
        });
    });
    Ok(())
}

/// A client handle for one remote service. Cloneable; calls from multiple
/// tasks multiplex over the same connection pair and are matched by
/// request id.
#[derive(Clone)]
pub struct RpcClient {
    reply_name: Arc<String>,
    request_port: Arc<SimMutex<SendPort>>,
    pending: Arc<Pending<Vec<u8>>>,
}

impl RpcClient {
    /// Connect to `service_name`: establishes the request connection and
    /// publishes a private response port.
    pub fn connect(node: &GridNode, service_name: &str) -> io::Result<RpcClient> {
        let n = node.alloc_rpc_client();
        let reply_name = format!("rpc-rsp-{}-{n}", node.name());
        let reply_port = node.create_receive_port(&reply_name, StackSpec::plain())?;
        let mut sp = node.create_send_port();
        sp.connect(service_name)?;
        let client = RpcClient {
            reply_name: Arc::new(reply_name.clone()),
            request_port: Arc::new(SimMutex::new(sp)),
            pending: Arc::new(Pending::new()),
        };
        let pending = Arc::clone(&client.pending);
        #[allow(clippy::while_let_loop)]
        node.host()
            .net()
            .sched()
            .spawn_daemon(format!("rpc-client-{reply_name}"), move || loop {
                let Ok(mut m) = reply_port.receive() else {
                    break;
                };
                let Ok(id) = m.read_u64() else { continue };
                pending.resolve(id, m.remaining().to_vec());
            });
        Ok(client)
    }

    /// Perform one call, blocking (in simulated time) for the response.
    pub fn call(&self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let id = self.pending.next_id();
        let send = || {
            let mut port = self.request_port.lock();
            let mut m = port.message();
            m.write_str(&self.reply_name);
            m.write_u64(id);
            m.write_bytes(payload);
            m.finish().map(drop)
        };
        self.pending.post(id, 0, send)?;
        self.pending.wait(id, "rpc reply")
    }
}
