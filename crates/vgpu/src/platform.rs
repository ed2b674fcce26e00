//! Platform: a host plus a set of virtual GPUs, like an OpenCL platform
//! with multiple devices (the paper's testbed is one host driving a Tesla
//! S1070 with 4 GPUs).

use std::sync::Arc;

use crate::device::{Device, DeviceId, DeviceSpec};
use crate::queue::CommandQueue;

/// A set of virtual devices discovered by the host.
#[derive(Debug, Clone)]
pub struct Platform {
    devices: Vec<Arc<Device>>,
}

impl Platform {
    /// Creates a platform with `count` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero — a platform without devices is useless
    /// and SkelCL's `init()` requires at least one.
    pub fn new(count: usize, spec: DeviceSpec) -> Self {
        assert!(count > 0, "a platform needs at least one device");
        let devices = (0..count)
            .map(|i| Arc::new(Device::new(DeviceId(i), spec.clone())))
            .collect();
        Platform { devices }
    }

    /// The paper's testbed: a Tesla S1070 computing system with 4 GPUs.
    pub fn tesla_s1070() -> Self {
        Platform::new(4, DeviceSpec::tesla_t10())
    }

    /// Creates a platform from one explicit spec per device — a
    /// heterogeneous system (mixed GPU generations, or a shared node where
    /// some devices are contended).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn heterogeneous(specs: Vec<DeviceSpec>) -> Self {
        assert!(!specs.is_empty(), "a platform needs at least one device");
        let devices = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Arc::new(Device::new(DeviceId(i), spec)))
            .collect();
        Platform { devices }
    }

    /// A skewed preset: the S1070 testbed with the first two GPUs running
    /// at half speed (clock and bandwidth), as if contended or a slower
    /// generation. Even block splits land at 1.33 max/mean busy time here;
    /// the adaptive scheduler should recover ≈1.0.
    pub fn tesla_s1070_slow_fast() -> Self {
        let fast = DeviceSpec::tesla_t10();
        let slow = fast.scaled(0.5);
        Platform::heterogeneous(vec![slow.clone(), slow, fast.clone(), fast])
    }

    /// A single-GPU platform.
    pub fn single(spec: DeviceSpec) -> Self {
        Platform::new(1, spec)
    }

    /// All devices.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// A device by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn device(&self, index: usize) -> &Arc<Device> {
        &self.devices[index]
    }

    /// Creates a command queue on device `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn queue(&self, index: usize) -> CommandQueue {
        CommandQueue::new(self.devices[index].clone())
    }

    /// Host-side execution statistics aggregated over all devices (launch
    /// counts, live pool threads, steal-cursor telemetry).
    pub fn exec_stats(&self) -> crate::device::ExecStats {
        let mut total = crate::device::ExecStats::default();
        for d in &self.devices {
            total.merge(&d.exec_stats());
        }
        total
    }
}

impl Default for Platform {
    /// The paper's 4-GPU Tesla S1070 testbed.
    fn default() -> Self {
        Platform::tesla_s1070()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_platform_has_four_gpus() {
        let p = Platform::tesla_s1070();
        assert_eq!(p.device_count(), 4);
        assert_eq!(p.device(3).id(), DeviceId(3));
        assert_eq!(p.device(0).spec().cores, 240);
    }

    #[test]
    fn devices_have_independent_timelines() {
        let p = Platform::new(2, DeviceSpec::test_tiny());
        p.device(0).advance(100);
        assert_eq!(p.device(0).now_ns(), 100);
        assert_eq!(p.device(1).now_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = Platform::new(0, DeviceSpec::test_tiny());
    }
}
