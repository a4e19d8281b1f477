//! A timing decorator over the object store: every call the metadata
//! server makes into RADOS becomes a `rados` span, and write payloads are
//! counted. Traced runs hand it to `MetadataServer::with_config`; untraced
//! runs pass the plain store.

use std::sync::Arc;

use bytes::Bytes;
use cudele_obs::Registry;
use cudele_rados::{IoDelta, ObjectId, ObjectStat, ObjectStore, PoolId, Result};

use crate::trace::{self, Layer};

/// Wraps a store; forwards every call unchanged inside a `rados` span.
pub struct TimedStore(pub Arc<dyn ObjectStore>);

impl ObjectStore for TimedStore {
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        trace::add_rados_bytes(data.len() as u64);
        trace::span(Layer::Rados, || self.0.write_full(id, data))
    }

    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> Result<u64> {
        trace::add_rados_bytes(data.len() as u64);
        trace::span(Layer::Rados, || self.0.cas_write_full(id, expected, data))
    }

    fn append(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        trace::add_rados_bytes(data.len() as u64);
        trace::span(Layer::Rados, || self.0.append(id, data))
    }

    fn read(&self, id: &ObjectId) -> Result<Bytes> {
        trace::span(Layer::Rados, || self.0.read(id))
    }

    fn stat(&self, id: &ObjectId) -> Result<ObjectStat> {
        trace::span(Layer::Rados, || self.0.stat(id))
    }

    fn remove(&self, id: &ObjectId) -> Result<()> {
        trace::span(Layer::Rados, || self.0.remove(id))
    }

    fn exists(&self, id: &ObjectId) -> bool {
        trace::span(Layer::Rados, || self.0.exists(id))
    }

    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        trace::span(Layer::Rados, || self.0.list(pool, prefix))
    }

    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> Result<u64> {
        trace::add_rados_bytes(value.len() as u64);
        trace::span(Layer::Rados, || self.0.omap_set(id, key, value))
    }

    fn omap_get(&self, id: &ObjectId, key: &str) -> Result<Option<Bytes>> {
        trace::span(Layer::Rados, || self.0.omap_get(id, key))
    }

    fn omap_remove(&self, id: &ObjectId, key: &str) -> Result<bool> {
        trace::span(Layer::Rados, || self.0.omap_remove(id, key))
    }

    fn omap_list(&self, id: &ObjectId) -> Result<Vec<(String, Bytes)>> {
        trace::span(Layer::Rados, || self.0.omap_list(id))
    }

    fn take_io_delta(&self) -> IoDelta {
        trace::span(Layer::Rados, || self.0.take_io_delta())
    }

    fn attach_obs(&self, reg: &Registry) {
        trace::span(Layer::Rados, || self.0.attach_obs(reg))
    }
}
