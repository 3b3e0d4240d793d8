//! Deterministic fleet topology generation (DESIGN.md §15, fleet scale-out).
//!
//! The thesis evaluates the wizard on the eleven machines of Table 5.1; a
//! production wizard selects among thousands. This module expands a seeded
//! [`TopologySpec`] — subnet groups, heterogeneous host classes, per-subnet
//! link profiles — into a [`Fleet`] of 10k+ simulated hosts with
//! deterministic names, addresses and baseline resource profiles.
//!
//! Two invariants the rest of the stack leans on:
//!
//! * **Determinism** — `spec.expand(seed)` is a pure function: the same
//!   `(spec, seed)` always yields byte-identical fleets (host order, IPs,
//!   sampled values), so fleet experiments stay reproducible at any
//!   `--jobs` width.
//! * **Class separation** — each [`HostClass`] samples its baseline
//!   metrics inside bands that never cross the requirement thresholds the
//!   `fleet.*` experiments use, so shape checks hold across the whole
//!   `--seeds` matrix rather than at one lucky seed.
//!
//! The hand-written testbed ([`crate::testbed`]) is *one named spec* here
//! ([`TopologySpec::testbed11`]): its eleven machines expand through the
//! same path as the generated fleets, with their Fig 5.1 segments becoming
//! ordinary subnets.

use smartsock_proto::{Ip, ServerStatusReport};
use smartsock_sim::rng::splitmix64;

use crate::cpu::CpuModel;
use crate::testbed;

/// A heterogeneous host class: hardware plus the band its baseline
/// metrics are sampled from. Bands are chosen so that class membership is
/// decidable from any sampled value (no band straddles the `fleet.*`
/// requirement thresholds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostClass {
    pub name: &'static str,
    pub cpu: CpuModel,
    pub ram_mb: u64,
    /// `cpu_idle` sampling band (fraction, lo..hi).
    pub idle: (f64, f64),
    /// 1-minute load-average sampling band.
    pub load: (f64, f64),
    /// Free-memory band as a fraction of RAM.
    pub mem_free: (f64, f64),
}

impl HostClass {
    /// Mostly-idle P4 2.4 GHz compute node: qualifies for
    /// `host_cpu_free > 0.9` at every seed.
    pub const COMPUTE: HostClass = HostClass {
        name: "compute",
        cpu: CpuModel::P4_2400,
        ram_mb: 512,
        idle: (0.92, 0.99),
        load: (0.02, 0.30),
        mem_free: (0.50, 0.85),
    };
    /// Mid-range P4 1.7 GHz general-purpose node, also mostly idle.
    pub const GENERAL: HostClass = HostClass {
        name: "general",
        cpu: CpuModel::P4_1700,
        ram_mb: 256,
        idle: (0.92, 0.99),
        load: (0.05, 0.40),
        mem_free: (0.40, 0.80),
    };
    /// Saturated node: never qualifies for `host_cpu_free > 0.9`.
    pub const BUSY: HostClass = HostClass {
        name: "busy",
        cpu: CpuModel::P4_1700,
        ram_mb: 256,
        idle: (0.05, 0.30),
        load: (2.0, 6.0),
        mem_free: (0.05, 0.20),
    };
    /// Old P3 866 MHz box with little memory, moderately loaded.
    pub const LEGACY: HostClass = HostClass {
        name: "legacy",
        cpu: CpuModel::P3_866,
        ram_mb: 128,
        idle: (0.55, 0.80),
        load: (0.5, 1.5),
        mem_free: (0.20, 0.45),
    };
}

/// The link feeding a subnet — consumed by deployment glue and by the
/// fleet experiments' modelled `netdb` records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkProfile {
    /// Switched 100 Mbps LAN (the testbed's private segments).
    Lan100,
    /// Gigabit LAN.
    Lan1G,
    /// The campus network of Fig 5.1 (shared 100 Mbps, more delay).
    Campus,
    /// A WAN hop with explicit delay/bandwidth.
    Wan { delay_ms: f64, bw_mbps: f64 },
}

impl LinkProfile {
    pub fn bw_mbps(self) -> f64 {
        match self {
            LinkProfile::Lan100 => 100.0,
            LinkProfile::Lan1G => 1000.0,
            LinkProfile::Campus => 100.0,
            LinkProfile::Wan { bw_mbps, .. } => bw_mbps,
        }
    }

    pub fn delay_ms(self) -> f64 {
        match self {
            LinkProfile::Lan100 => 0.2,
            LinkProfile::Lan1G => 0.05,
            LinkProfile::Campus => 0.5,
            LinkProfile::Wan { delay_ms, .. } => delay_ms,
        }
    }
}

/// One group of identically-shaped subnets in a spec.
#[derive(Clone, Debug)]
pub struct SubnetGroup {
    /// Host-name prefix (`"c"` → hosts `c0-1`, `c0-2`, …).
    pub label: &'static str,
    /// Total hosts in the group; filled `hosts_per_subnet` at a time, the
    /// last subnet taking the remainder.
    pub total_hosts: u32,
    /// Hosts per /24 subnet (1..=250).
    pub hosts_per_subnet: u16,
    /// Weighted class mix; per-host classes are drawn deterministically
    /// from `(seed, subnet, host)`.
    pub classes: Vec<(HostClass, u32)>,
    /// Link profile shared by every subnet in the group.
    pub link: LinkProfile,
}

/// A seeded topology: explicit machines (the hand-written testbed) plus
/// generated subnet groups. `expand(seed)` turns it into a [`Fleet`].
#[derive(Clone, Debug)]
pub struct TopologySpec {
    pub name: &'static str,
    /// Hand-specified machines (Table 5.1 path); each lands in the subnet
    /// its address implies.
    pub explicit: Vec<testbed::MachineSpec>,
    pub groups: Vec<SubnetGroup>,
}

/// One expanded host.
#[derive(Clone, Debug)]
pub struct FleetHost {
    pub name: String,
    pub ip: Ip,
    /// Index into [`Fleet::subnets`].
    pub subnet: usize,
    pub class: HostClass,
    /// Sampled baseline metrics (within the class bands).
    pub cpu_idle: f64,
    pub load1: f64,
    pub mem_free_bytes: u64,
}

impl FleetHost {
    /// Render this host's baseline as the probe's status report — the
    /// fleet experiments feed these straight into the status DB without
    /// simulating 10k real probe daemons.
    pub fn status_report(&self) -> ServerStatusReport {
        let mut r = ServerStatusReport::empty(self.name.as_str(), self.ip);
        r.load1 = self.load1;
        r.load5 = self.load1 * 0.9;
        r.load15 = self.load1 * 0.8;
        r.cpu_idle = self.cpu_idle;
        r.cpu_user = (1.0 - self.cpu_idle) * 0.8;
        r.cpu_system = (1.0 - self.cpu_idle) * 0.2;
        r.bogomips = self.class.cpu.bogomips;
        r.mem_total = self.class.ram_mb << 20;
        r.mem_free = self.mem_free_bytes;
        r.mem_used = (self.class.ram_mb << 20).saturating_sub(self.mem_free_bytes);
        r.iface = "eth0".to_owned();
        r
    }
}

/// One expanded /24 subnet.
#[derive(Clone, Debug)]
pub struct SubnetInfo {
    /// The first three address octets (`a.b.c.0/24`).
    pub prefix: [u8; 3],
    pub label: String,
    pub link: LinkProfile,
    /// The subnet's network-monitor address (`.254` by convention).
    pub monitor: Ip,
}

/// A fully expanded topology: hosts in address order within generation
/// order, subnets in generation order.
#[derive(Clone, Debug)]
pub struct Fleet {
    pub name: &'static str,
    pub hosts: Vec<FleetHost>,
    pub subnets: Vec<SubnetInfo>,
}

impl Fleet {
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }
}

/// Unit-interval sample from a `(seed, stream, a, b)` tuple — splitmix64
/// avalanche, no RNG state to thread.
fn unit(seed: u64, stream: u64, a: u64, b: u64) -> f64 {
    let x = splitmix64(seed ^ splitmix64(stream.wrapping_add(a << 20).wrapping_add(b)));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn sample(band: (f64, f64), u: f64) -> f64 {
    band.0 + (band.1 - band.0) * u
}

impl TopologySpec {
    /// The eleven hand-written machines of Table 5.1 as one named spec.
    pub fn testbed11() -> TopologySpec {
        TopologySpec { name: "testbed11", explicit: testbed::machine_specs(), groups: Vec::new() }
    }

    /// A generated fleet of exactly `total` hosts: half mostly-idle
    /// compute/general subnets on gigabit links, half busy/legacy subnets
    /// on 100 Mbps links — heterogeneous enough that subnet pruning has
    /// something to prune.
    pub fn fleet(total: u32) -> TopologySpec {
        let compute = total - total / 2;
        let busy = total / 2;
        let mut groups = vec![SubnetGroup {
            label: "c",
            total_hosts: compute,
            hosts_per_subnet: 50,
            classes: vec![(HostClass::COMPUTE, 3), (HostClass::GENERAL, 1)],
            link: LinkProfile::Lan1G,
        }];
        if busy > 0 {
            groups.push(SubnetGroup {
                label: "b",
                total_hosts: busy,
                hosts_per_subnet: 50,
                classes: vec![(HostClass::BUSY, 3), (HostClass::LEGACY, 1)],
                link: LinkProfile::Lan100,
            });
        }
        TopologySpec { name: "fleet", explicit: Vec::new(), groups }
    }

    /// Look up a named spec: `testbed11`, `fleet100`, `fleet1k`,
    /// `fleet10k`.
    pub fn named(name: &str) -> Option<TopologySpec> {
        Some(match name {
            "testbed11" => TopologySpec::testbed11(),
            "fleet100" => TopologySpec::fleet(100),
            "fleet1k" => TopologySpec::fleet(1_000),
            "fleet10k" => TopologySpec::fleet(10_000),
            _ => return None,
        })
    }

    /// Expand into a concrete fleet. Pure in `(self, seed)`.
    ///
    /// Generated subnets take `10.(1 + k/200).(k % 200).0/24` for running
    /// subnet index `k`, hosts `.1 ..= .hosts`; explicit machines keep
    /// their Table 5.1 addresses and are grouped into subnets by /24
    /// prefix.
    pub fn expand(&self, seed: u64) -> Fleet {
        let mut hosts = Vec::new();
        let mut subnets: Vec<SubnetInfo> = Vec::new();

        // Explicit machines first: one subnet per distinct /24 prefix, in
        // first-appearance order.
        for m in &self.explicit {
            let o = m.ip.octets();
            let prefix = [o[0], o[1], o[2]];
            let subnet = match subnets.iter().position(|s| s.prefix == prefix) {
                Some(i) => i,
                None => {
                    subnets.push(SubnetInfo {
                        prefix,
                        label: if m.segment == 0 {
                            "campus".to_owned()
                        } else {
                            format!("segment{}", m.segment)
                        },
                        link: if m.segment == 0 {
                            LinkProfile::Campus
                        } else {
                            LinkProfile::Lan100
                        },
                        monitor: Ip::new(prefix[0], prefix[1], prefix[2], 254),
                    });
                    subnets.len() - 1
                }
            };
            // Hand-written machines carry no sampled baseline: they start
            // idle, exactly as `Host::new` boots them in the simulator.
            hosts.push(FleetHost {
                name: m.name.to_owned(),
                ip: m.ip,
                subnet,
                class: HostClass {
                    name: "testbed",
                    cpu: m.cpu,
                    ram_mb: m.ram_mb,
                    idle: (1.0, 1.0),
                    load: (0.0, 0.0),
                    mem_free: (0.9, 0.9),
                },
                cpu_idle: 1.0,
                load1: 0.0,
                mem_free_bytes: (m.ram_mb << 20) * 9 / 10,
            });
        }

        // Generated groups: subnets are numbered across groups so their
        // /24 prefixes never collide.
        let mut k: u32 = 0; // running generated-subnet index
        for (gi, g) in self.groups.iter().enumerate() {
            assert!(
                (1..=250).contains(&g.hosts_per_subnet),
                "hosts_per_subnet must be 1..=250, got {}",
                g.hosts_per_subnet
            );
            let weight_total: u32 = g.classes.iter().map(|(_, w)| w).sum();
            assert!(weight_total > 0, "group {:?} has no class weights", g.label);
            let mut remaining = g.total_hosts;
            while remaining > 0 {
                let here = remaining.min(u32::from(g.hosts_per_subnet));
                let prefix = [10, (1 + k / 200) as u8, (k % 200) as u8];
                assert!(k / 200 < 250, "too many generated subnets");
                let subnet = subnets.len();
                subnets.push(SubnetInfo {
                    prefix,
                    label: format!("{}{k}", g.label),
                    link: g.link,
                    monitor: Ip::new(prefix[0], prefix[1], prefix[2], 254),
                });
                for h in 0..here {
                    // Class draw: weighted, keyed by (seed, group, subnet,
                    // host) so every host is independent of every other.
                    let stream = (gi as u64) << 40 | u64::from(k);
                    let pick =
                        (unit(seed, stream, u64::from(h), 0) * f64::from(weight_total)) as u32;
                    let mut acc = 0u32;
                    let mut class = g.classes[0].0;
                    for (c, w) in &g.classes {
                        acc += w;
                        if pick < acc {
                            class = *c;
                            break;
                        }
                    }
                    let idle = sample(class.idle, unit(seed, stream, u64::from(h), 1));
                    let load1 = sample(class.load, unit(seed, stream, u64::from(h), 2));
                    let free = sample(class.mem_free, unit(seed, stream, u64::from(h), 3));
                    hosts.push(FleetHost {
                        name: format!("{}{k}-{}", g.label, h + 1),
                        ip: Ip::new(prefix[0], prefix[1], prefix[2], (h + 1) as u8),
                        subnet,
                        class,
                        cpu_idle: idle,
                        load1,
                        mem_free_bytes: ((class.ram_mb << 20) as f64 * free) as u64,
                    });
                }
                remaining -= here;
                k += 1;
            }
        }
        Fleet { name: self.name, hosts, subnets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn testbed11_expands_to_the_eleven_table_5_1_machines() {
        let fleet = TopologySpec::testbed11().expand(1);
        assert_eq!(fleet.len(), 11);
        let specs = testbed::machine_specs();
        for (h, m) in fleet.hosts.iter().zip(&specs) {
            assert_eq!(h.name, m.name);
            assert_eq!(h.ip, m.ip);
            assert_eq!(h.class.cpu, m.cpu);
        }
        // Fig 5.1: campus plus five private segments — six subnets.
        assert_eq!(fleet.subnets.len(), 6);
        assert_eq!(fleet.subnets[0].label, "campus");
        assert_eq!(fleet.subnets[0].link, LinkProfile::Campus);
    }

    #[test]
    fn fleet_sizes_are_exact_and_subnetted() {
        for (total, want_subnets) in [(100u32, 2usize), (1_000, 20), (10_000, 200)] {
            let fleet = TopologySpec::fleet(total).expand(7);
            assert_eq!(fleet.len(), total as usize, "fleet({total})");
            assert_eq!(fleet.subnets.len(), want_subnets, "fleet({total}) subnets");
        }
    }

    #[test]
    fn addresses_and_prefixes_are_unique() {
        let fleet = TopologySpec::fleet(1_000).expand(42);
        let ips: BTreeSet<Ip> = fleet.hosts.iter().map(|h| h.ip).collect();
        assert_eq!(ips.len(), fleet.len());
        let prefixes: BTreeSet<[u8; 3]> = fleet.subnets.iter().map(|s| s.prefix).collect();
        assert_eq!(prefixes.len(), fleet.subnets.len());
        for h in &fleet.hosts {
            let o = h.ip.octets();
            assert_eq!([o[0], o[1], o[2]], fleet.subnets[h.subnet].prefix);
        }
    }

    #[test]
    fn expansion_is_deterministic_and_seed_sensitive() {
        let a = TopologySpec::fleet(200).expand(5);
        let b = TopologySpec::fleet(200).expand(5);
        for (x, y) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.cpu_idle, y.cpu_idle);
            assert_eq!(x.load1, y.load1);
            assert_eq!(x.mem_free_bytes, y.mem_free_bytes);
        }
        let c = TopologySpec::fleet(200).expand(6);
        assert!(
            a.hosts.iter().zip(&c.hosts).any(|(x, y)| x.cpu_idle != y.cpu_idle),
            "different seeds must sample different baselines"
        );
    }

    #[test]
    fn sampled_values_stay_inside_class_bands() {
        let fleet = TopologySpec::fleet(500).expand(99);
        for h in &fleet.hosts {
            let c = h.class;
            assert!(h.cpu_idle >= c.idle.0 && h.cpu_idle <= c.idle.1, "{}", h.name);
            assert!(h.load1 >= c.load.0 && h.load1 <= c.load.1, "{}", h.name);
            let free = h.mem_free_bytes as f64 / (c.ram_mb << 20) as f64;
            assert!(free >= c.mem_free.0 - 1e-9 && free <= c.mem_free.1 + 1e-9, "{}", h.name);
        }
    }

    #[test]
    fn class_bands_never_cross_the_fleet_requirement_threshold() {
        // The fleet experiments select on `host_cpu_free > 0.9`: compute
        // and general hosts always qualify, busy and legacy never do.
        for c in [HostClass::COMPUTE, HostClass::GENERAL] {
            assert!(c.idle.0 > 0.9, "{} must always qualify", c.name);
        }
        for c in [HostClass::BUSY, HostClass::LEGACY] {
            assert!(c.idle.1 < 0.9, "{} must never qualify", c.name);
        }
    }

    #[test]
    fn status_reports_carry_the_sampled_baseline() {
        let fleet = TopologySpec::fleet(100).expand(3);
        let h = &fleet.hosts[0];
        let r = h.status_report();
        assert_eq!(r.ip, h.ip);
        assert_eq!(r.cpu_idle, h.cpu_idle);
        assert_eq!(r.mem_total, h.class.ram_mb << 20);
        assert_eq!(r.mem_free, h.mem_free_bytes);
        assert!(r.bogomips > 0.0);
    }

    #[test]
    fn named_specs_resolve() {
        for (name, size) in [("testbed11", 11), ("fleet100", 100), ("fleet1k", 1_000)] {
            let spec = TopologySpec::named(name).unwrap();
            assert_eq!(spec.expand(1).len(), size);
        }
        assert!(TopologySpec::named("fleet1m").is_none());
    }
}
