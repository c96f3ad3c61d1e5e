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

use bytes::Bytes;
use gridsim_net::SimMutex;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use crate::drivers::StackSpec;
use crate::link::Pending;
use crate::node::GridNode;
use crate::port::SendPort;
use crate::wire::{Put, RpcReply, RpcRequest, Wire};

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
    sched.spawn_daemon(format!("rpc-serve-{service}"), move || {
        while let Ok(m) = rp.receive() {
            let Ok(req) = RpcRequest::decode(&m.into_vec().into()) else {
                continue;
            };
            let handler = Arc::clone(&handler);
            let node = node.clone();
            let replies = Arc::clone(&replies);
            sched2.spawn_daemon("rpc-handler", move || {
                let (id, payload) = (req.id, handler(&req.payload).into());
                let port = || Arc::new(SimMutex::new(node.create_send_port()));
                let mut map = replies.lock();
                let back = Arc::clone(map.entry(req.reply_to.clone()).or_insert_with(port));
                drop(map);
                let mut port = back.lock();
                if port.connection_count() == 0 && port.connect(&req.reply_to).is_err() {
                    return; // client gone
                }
                let _ = port.send(RpcReply { id, payload }.encode().payload());
            });
        }
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
        let sched = node.host().net().sched().clone();
        sched.spawn_daemon(format!("rpc-client-{reply_name}"), move || {
            while let Ok(m) = reply_port.receive() {
                if let Ok(rsp) = RpcReply::decode(&m.into_vec().into()) {
                    pending.resolve(rsp.id, rsp.payload.to_vec());
                }
            }
        });
        Ok(client)
    }

    /// Perform one call, blocking (in simulated time) for the response.
    pub fn call(&self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let id = self.pending.next_id();
        let reply_to = self.reply_name.to_string();
        let req = RpcRequest {
            reply_to,
            id,
            payload: Bytes::copy_from_slice(payload),
        };
        let send = async { self.request_port.lock().send(req.encode().payload()) };
        gridsim_net::ctx::block_on(async {
            self.pending.post(id, 0, send).await?;
            self.pending.wait(id, "rpc reply").await
        })
    }
}
