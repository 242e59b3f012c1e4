//! Network topology over inventory nodes.
//!
//! The dashboard "provides a graphical representation of the
//! infrastructure topology" (Section III-C1); this module is the graph
//! it renders.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::inventory::{Inventory, NodeId};

/// The kind of a link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum LinkKind {
    /// Local-area network segment.
    Lan,
    /// Wide-area / internet-facing connection.
    Wan,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The network kind.
    pub kind: LinkKind,
}

/// The infrastructure network graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Topology {
    links: Vec<Link>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Derives a topology from an inventory: nodes sharing a named
    /// network are pairwise linked (LAN segments become cliques, which
    /// is how small flat networks actually look).
    ///
    /// # Examples
    ///
    /// ```
    /// use cais_infra::{inventory::Inventory, Topology};
    ///
    /// let topology = Topology::from_inventory(&Inventory::paper_table3());
    /// // Four nodes on one LAN → 6 pairwise links.
    /// assert_eq!(topology.links().len(), 6);
    /// ```
    pub fn from_inventory(inventory: &Inventory) -> Self {
        let nodes: Vec<_> = inventory.nodes().collect();
        // Each network's members in inventory order, so that only nodes
        // sharing a network are ever paired.
        let mut members: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            for network in &node.networks {
                members.entry(network).or_default().push(i);
            }
        }
        let mut links = Vec::new();
        for (i, a) in nodes.iter().enumerate() {
            let mut peers: Vec<usize> = a
                .networks
                .iter()
                .flat_map(|network| &members[network.as_str()])
                .copied()
                .filter(|&j| j > i)
                .collect();
            peers.sort_unstable();
            peers.dedup();
            for b in peers.into_iter().map(|j| nodes[j]) {
                let network = a
                    .networks
                    .iter()
                    .find(|n| b.networks.contains(n))
                    .expect("paired nodes share a network");
                let kind = if network.eq_ignore_ascii_case("wan") {
                    LinkKind::Wan
                } else {
                    LinkKind::Lan
                };
                // Inventory ids are unique, so each pair is a new link.
                links.push(Link {
                    a: a.id,
                    b: b.id,
                    kind,
                });
            }
        }
        Topology { links }
    }

    /// Adds a link (idempotent; `a`/`b` order does not matter).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, kind: LinkKind) {
        if a == b || self.are_linked(a, b) {
            return;
        }
        self.links.push(Link { a, b, kind });
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Whether two nodes are directly linked.
    pub fn are_linked(&self, a: NodeId, b: NodeId) -> bool {
        self.links
            .iter()
            .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// The direct neighbors of a node.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .links
            .iter()
            .filter_map(|l| {
                if l.a == node {
                    Some(l.b)
                } else if l.b == node {
                    Some(l.a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inventory::{Inventory, NodeType};

    #[test]
    fn clique_from_shared_lan() {
        let topology = Topology::from_inventory(&Inventory::paper_table3());
        assert_eq!(topology.links().len(), 6);
        assert!(topology.are_linked(NodeId(1), NodeId(4)));
        assert_eq!(topology.neighbors(NodeId(2)).len(), 3);
    }

    #[test]
    fn add_link_is_idempotent_and_rejects_self_loops() {
        let mut t = Topology::new();
        t.add_link(NodeId(1), NodeId(2), LinkKind::Lan);
        t.add_link(NodeId(2), NodeId(1), LinkKind::Lan);
        t.add_link(NodeId(1), NodeId(1), LinkKind::Lan);
        assert_eq!(t.links().len(), 1);
    }

    #[test]
    fn links_match_a_scan_of_every_pair() {
        let mut builder = Inventory::builder();
        for i in 0..60 {
            let mut node = builder.node(format!("n{i}"), NodeType::Server, "linux");
            if i % 11 != 0 {
                node.network(format!("lan-{}", i % 5));
            }
            if i % 3 == 0 {
                node.network(if i % 2 == 0 { "WAN" } else { "wan" });
            }
            if i % 7 == 0 {
                node.network("dmz").network(format!("lan-{}", i % 5));
            }
        }
        let inventory = builder.build();

        let mut oracle = Topology::new();
        let nodes: Vec<_> = inventory.nodes().collect();
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                if let Some(network) = a.networks.iter().find(|n| b.networks.contains(n)) {
                    let kind = if network.eq_ignore_ascii_case("wan") {
                        LinkKind::Wan
                    } else {
                        LinkKind::Lan
                    };
                    oracle.add_link(a.id, b.id, kind);
                }
            }
        }
        assert!(oracle.links().iter().any(|l| l.kind == LinkKind::Wan));
        assert_eq!(Topology::from_inventory(&inventory), oracle);
    }

    #[test]
    fn neighbors_of_isolated_node_empty() {
        let t = Topology::new();
        assert!(t.neighbors(NodeId(9)).is_empty());
    }
}
