//! The netlist IR: modules, nets and instances addressed by dense indices.
//!
//! A [`Design`] owns its [`Module`]s and addresses them by [`ModuleId`]. A
//! module keeps the names of its nets in one name table and their widths
//! in one vector, both indexed by [`NetId`]; instance names live in a
//! second table indexed by [`InstId`], and every instance's connections
//! sit in one flat vector of `(port index, Signal)` pairs. A [`Signal`] is
//! `Copy` and refers to nets by id, so building a macro allocates per
//! table, not per instance or connection.
//!
//! A row of identical child instances is one [`GenerateLoop`]: a block
//! name, a copy count and the members instantiated per copy, each wired
//! by [`LoopSignal`]s that either reach every copy unchanged or step
//! through a bus by a fixed stride. A loop costs the same to build,
//! validate and emit whatever its count; [`Design::flattened`] expands it
//! into ordinary instances.
//!
//! A module can only instantiate modules already in the design, so child
//! ids are always lower than their parent's id and every traversal is a
//! walk over a DAG. Widths and ports are checked by one index-based pass,
//! [`Design::validate`], which reports every located violation and runs
//! once per design: its result is kept until the design is modified.

use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

use crate::cells::cell_ports;
use sega_cells::StandardCell;
use sega_estimator::ParamError;

/// Errors produced while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// Two modules share a name.
    DuplicateModule(String),
    /// A module name (or an instance target id) that is not in the design.
    UnknownModule(String),
    /// The design has no top module set.
    NoTop,
    /// The design point handed to the generator is not a buildable macro.
    DesignPoint(ParamError),
    /// Validation found these violations (all of them, in module order).
    Invalid(Vec<Violation>),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateModule(m) => write!(f, "duplicate module `{m}`"),
            NetlistError::UnknownModule(m) => write!(f, "unknown module `{m}`"),
            NetlistError::NoTop => write!(f, "design has no top module"),
            NetlistError::DesignPoint(e) => write!(f, "invalid design point: {e}"),
            NetlistError::Invalid(violations) => {
                write!(f, "netlist has {} violation(s):", violations.len())?;
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// One located validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Containing module.
    pub module: String,
    /// Instance name, `assign #i` for the `i`-th continuous assignment,
    /// a loop's block name, `block.member` for a loop member, or empty for
    /// a module-level fault.
    pub instance: String,
    /// Port name, or empty where no port is involved.
    pub port: String,
    /// What is wrong.
    pub fault: Fault,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module `{}`", self.module)?;
        if !self.instance.is_empty() {
            write!(f, ", instance `{}`", self.instance)?;
        }
        if !self.port.is_empty() {
            write!(f, ", port `{}`", self.port)?;
        }
        write!(f, ": {}", self.fault)
    }
}

/// The kind of a [`Violation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Two nets of the module share this name.
    DuplicateNet(String),
    /// A signal refers to a net id this module does not have.
    UnknownNet(u32),
    /// The target cell or module has no port of the violation's name.
    UnknownPort {
        /// Target cell/module name.
        target: String,
    },
    /// A bit/slice index exceeds the referenced net's width.
    IndexOutOfRange {
        /// Referenced net.
        net: String,
        /// Offending index.
        index: u32,
        /// Net width.
        width: u32,
    },
    /// A slice whose msb is below its lsb.
    ReversedSlice {
        /// Referenced net.
        net: String,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// A concatenation that does not refer to this module's parts.
    BadConcat,
    /// A connected signal's width does not match the port (or an
    /// assignment's sides differ).
    WidthMismatch {
        /// Expected (port / left-hand side) width.
        expected: u32,
        /// Actual (signal / right-hand side) width.
        actual: u32,
    },
    /// A generate loop with no copies.
    EmptyLoop,
    /// A loop's block or genvar name is already a net, instance or loop
    /// name of the module, or a loop names two members alike.
    DuplicateName(String),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::DuplicateNet(net) => write!(f, "duplicate net `{net}`"),
            Fault::UnknownNet(id) => write!(f, "net #{id} is not declared in this module"),
            Fault::UnknownPort { target } => write!(f, "target `{target}` has no such port"),
            Fault::IndexOutOfRange { net, index, width } => write!(
                f,
                "index {index} out of range for net `{net}` of width {width}"
            ),
            Fault::ReversedSlice { net, msb, lsb } => {
                write!(f, "slice `{net}[{msb}:{lsb}]` has its msb below its lsb")
            }
            Fault::BadConcat => write!(f, "concatenation refers outside this module"),
            Fault::WidthMismatch { expected, actual } => {
                write!(f, "expected width {expected}, got {actual}")
            }
            Fault::EmptyLoop => write!(f, "generate loop has a count of 0"),
            Fault::DuplicateName(name) => write!(f, "name `{name}` is declared twice"),
        }
    }
}

/// Index of a module in its [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(u32);

/// Index of a net (port or wire) in its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(u32);

/// Index of an instance in its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(u32);

impl ModuleId {
    /// Position in [`Design::modules`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Module input.
    Input,
    /// Module output.
    Output,
}

/// A module port: a directed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// The net carrying the port (its name and width are the port's).
    pub net: NetId,
    /// Direction.
    pub dir: Dir,
}

/// What an instance instantiates: a leaf standard cell or a child module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceTarget {
    /// A Table III standard cell.
    Cell(StandardCell),
    /// A child module of the same design.
    Module(ModuleId),
}

/// Port index recorded for a connection whose port name matched nothing.
const UNRESOLVED: u32 = u32::MAX;

/// A borrowed view of one instance.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// Instance id within its module.
    pub id: InstId,
    /// Instance name (unique within the parent module).
    pub name: &'a str,
    /// What is instantiated.
    pub target: InstanceTarget,
    /// `(port index, connected signal)` pairs; the index is into the
    /// cell's [`cell_ports`] or the child module's [`Module::ports`].
    pub connections: &'a [(u32, Signal)],
}

/// A run of concatenation parts in its module's part table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Concat {
    start: u32,
    len: u32,
}

/// A signal expression connecting instance ports: a whole net, a bit, a
/// slice, a constant, or a concatenation. Nets are ids of the module the
/// signal is used in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// A whole net (port or wire).
    Net(NetId),
    /// One bit of a net: `net[bit]`.
    Bit(NetId, u32),
    /// An inclusive slice: `net[msb:lsb]`.
    Slice {
        /// Net id.
        net: NetId,
        /// Most significant bit (inclusive).
        msb: u32,
        /// Least significant bit (inclusive).
        lsb: u32,
    },
    /// A literal: `width'd value`.
    Const {
        /// Bit width of the literal.
        width: u32,
        /// Value (must fit in `width` bits).
        value: u64,
    },
    /// A concatenation, most significant part first (Verilog `{a, b}`),
    /// built by [`Module::concat`].
    Concat(Concat),
}

impl Signal {
    /// Convenience constructor for an inclusive slice `[msb:lsb]`.
    ///
    /// # Panics
    ///
    /// Panics if `msb < lsb`.
    pub fn slice(net: NetId, msb: u32, lsb: u32) -> Signal {
        assert!(msb >= lsb, "slice msb must be >= lsb");
        Signal::Slice { net, msb, lsb }
    }

    /// A `width`-bit zero.
    pub fn zeros(width: u32) -> Signal {
        Signal::Const { width, value: 0 }
    }
}

/// Names stored back to back in one string, addressed by position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn push(&mut self, name: impl fmt::Display) -> u32 {
        let _ = write!(self.text, "{name}");
        let end = u32::try_from(self.text.len()).expect("name table fits in 4 GiB");
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }

    fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len() as u32).map(|i| self.get(i))
    }
}

/// How a [`GenerateLoop`] member's port is wired in copy `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopSignal {
    /// The same signal in every copy.
    Broadcast(Signal),
    /// Copy `i` gets `net[base + i·width +: width]`.
    Strided {
        /// Net id.
        net: NetId,
        /// Lowest bit of copy 0's slice.
        base: u32,
        /// Bits per copy (the port's width).
        width: u32,
    },
}

impl LoopSignal {
    /// The signal copy `i` receives.
    ///
    /// # Panics
    ///
    /// A strided width of 0 has no slice; debug builds panic on it.
    pub(crate) fn at(self, i: u32) -> Signal {
        match self {
            LoopSignal::Broadcast(signal) => signal,
            LoopSignal::Strided { net, base, width } => {
                Signal::slice(net, base + (i + 1) * width - 1, base + i * width)
            }
        }
    }
}

/// One instance per copy of a [`GenerateLoop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Instance name inside the loop's block (unique within the loop).
    pub name: String,
    /// The instantiated child module.
    pub child: ModuleId,
    /// `(port index, wiring)` pairs; the index is into the child's
    /// [`Module::ports`].
    pub connections: Vec<(u32, LoopSignal)>,
    /// `(connection index, port name)` for names that matched no port.
    unresolved: Vec<(u32, String)>,
}

/// A Verilog `generate for` loop: `count` copies of its members, copy `i`
/// living at `block[i].member`. Members are instantiated member by member
/// within a copy, copy after copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateLoop {
    block: String,
    count: u32,
    members: Vec<Member>,
}

impl GenerateLoop {
    /// An empty loop of `count` copies named `block`.
    pub fn new(block: impl Into<String>, count: u32) -> GenerateLoop {
        GenerateLoop {
            block: block.into(),
            count,
            members: Vec::new(),
        }
    }

    /// Adds a member instantiating `child`, a module of `design`, in every
    /// copy with named connections.
    pub fn add_member(
        &mut self,
        design: &Design,
        name: impl Into<String>,
        child: ModuleId,
        connections: &[(&str, LoopSignal)],
    ) -> &mut GenerateLoop {
        let mut member = Member {
            name: name.into(),
            child,
            connections: Vec::with_capacity(connections.len()),
            unresolved: Vec::new(),
        };
        resolve_ports(
            connections,
            design.module_port_names(child),
            &mut member.connections,
            &mut member.unresolved,
        );
        self.members.push(member);
        self
    }

    /// The block name.
    pub fn block(&self) -> &str {
        &self.block
    }

    /// The loop variable's name: `{block}_i`.
    pub(crate) fn genvar(&self) -> String {
        format!("{}_i", self.block)
    }

    /// Number of copies.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Members, in instantiation order within a copy.
    pub fn members(&self) -> &[Member] {
        &self.members
    }
}

/// Appends `connections` to `out` with each port name resolved through
/// `port_name`, which names the target's port `i` (`None` past the last);
/// a name matching nothing is recorded in `unresolved` at its index in
/// `out`.
fn resolve_ports<'p, S: Copy>(
    connections: &[(&str, S)],
    port_name: impl Fn(usize) -> Option<&'p str>,
    out: &mut Vec<(u32, S)>,
    unresolved: &mut Vec<(u32, String)>,
) {
    for (k, &(port, signal)) in connections.iter().enumerate() {
        // Connections usually follow the port order: try position k first.
        let found = if port_name(k) == Some(port) {
            Some(k)
        } else {
            (0..).map_while(&port_name).position(|n| n == port)
        };
        let index = match found {
            Some(i) => i as u32,
            None => {
                let at = u32::try_from(out.len()).expect("fewer than 2^32 connections");
                unresolved.push((at, port.to_owned()));
                UNRESOLVED
            }
        };
        out.push((index, signal));
    }
}

/// The name recorded for an unresolved connection `conn`, or `#port`.
fn unresolved_name(unresolved: &[(u32, String)], conn: usize, port: u32) -> String {
    unresolved
        .iter()
        .find(|(c, _)| *c as usize == conn)
        .map_or_else(|| format!("#{port}"), |(_, n)| n.clone())
}

/// A netlist module: ports, internal wires, instances, generate loops and
/// continuous assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (unique within a [`Design`]).
    pub name: String,
    net_names: Names,
    net_widths: Vec<u32>,
    ports: Vec<Port>,
    wires: Vec<NetId>,
    inst_names: Names,
    targets: Vec<InstanceTarget>,
    conn_ends: Vec<u32>,
    conns: Vec<(u32, Signal)>,
    assigns: Vec<(Signal, Signal)>,
    parts: Vec<Signal>,
    /// `(connection index, port name)` for names that matched no port.
    unresolved: Vec<(u32, String)>,
    loops: Vec<GenerateLoop>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            net_names: Names::default(),
            net_widths: Vec::new(),
            ports: Vec::new(),
            wires: Vec::new(),
            inst_names: Names::default(),
            targets: Vec::new(),
            conn_ends: Vec::new(),
            conns: Vec::new(),
            assigns: Vec::new(),
            parts: Vec::new(),
            unresolved: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn add_net(&mut self, name: impl fmt::Display, width: u32) -> NetId {
        self.net_widths.push(width);
        NetId(self.net_names.push(name))
    }

    /// Declares an input port.
    pub fn add_input(&mut self, name: impl fmt::Display, width: u32) -> NetId {
        let net = self.add_net(name, width);
        self.ports.push(Port {
            net,
            dir: Dir::Input,
        });
        net
    }

    /// Declares an output port.
    pub fn add_output(&mut self, name: impl fmt::Display, width: u32) -> NetId {
        let net = self.add_net(name, width);
        self.ports.push(Port {
            net,
            dir: Dir::Output,
        });
        net
    }

    /// Declares an internal wire.
    pub fn add_wire(&mut self, name: impl fmt::Display, width: u32) -> NetId {
        let net = self.add_net(name, width);
        self.wires.push(net);
        net
    }

    /// Instantiates a standard cell with named connections.
    pub fn add_cell(
        &mut self,
        name: impl fmt::Display,
        cell: StandardCell,
        connections: &[(&str, Signal)],
    ) -> InstId {
        let ports = cell_ports(cell);
        self.push_instance(name, InstanceTarget::Cell(cell), connections, |i| {
            ports.get(i).map(|p| p.0)
        })
    }

    /// Adds a generate loop. Loops follow the module's flat instances, in
    /// the order they were added.
    pub fn add_loop(&mut self, generate: GenerateLoop) {
        self.loops.push(generate);
    }

    /// Instantiates `child`, a module of `design`, with named connections.
    pub fn add_instance(
        &mut self,
        design: &Design,
        name: impl fmt::Display,
        child: ModuleId,
        connections: &[(&str, Signal)],
    ) -> InstId {
        let port_names = design.module_port_names(child);
        self.push_instance(name, InstanceTarget::Module(child), connections, port_names)
    }

    /// Appends an instance, resolving each connection's port name through
    /// `port_name`, which names the target's port `i` (`None` past the last).
    fn push_instance<'p>(
        &mut self,
        name: impl fmt::Display,
        target: InstanceTarget,
        connections: &[(&str, Signal)],
        port_name: impl Fn(usize) -> Option<&'p str>,
    ) -> InstId {
        resolve_ports(
            connections,
            port_name,
            &mut self.conns,
            &mut self.unresolved,
        );
        self.end_instance(name, target)
    }

    /// Closes the instance whose connections end the connection vector.
    fn end_instance(&mut self, name: impl fmt::Display, target: InstanceTarget) -> InstId {
        let end = u32::try_from(self.conns.len()).expect("fewer than 2^32 connections");
        self.conn_ends.push(end);
        self.targets.push(target);
        InstId(self.inst_names.push(name))
    }

    /// Replaces every generate loop by its copies' instances, named
    /// `{member}{i}`, after the flat instances.
    fn expand_loops(&mut self) {
        for generate in std::mem::take(&mut self.loops) {
            for i in 0..generate.count {
                for member in &generate.members {
                    let start = self.conns.len() as u32;
                    self.conns.extend(
                        member
                            .connections
                            .iter()
                            .map(|&(port, wiring)| (port, wiring.at(i))),
                    );
                    self.unresolved.extend(
                        member
                            .unresolved
                            .iter()
                            .map(|(k, name)| (start + k, name.clone())),
                    );
                    let name = format_args!("{}{i}", member.name);
                    self.end_instance(name, InstanceTarget::Module(member.child));
                }
            }
        }
    }

    /// Adds a continuous assignment `lhs = rhs`.
    pub fn add_assign(&mut self, lhs: Signal, rhs: Signal) {
        self.assigns.push((lhs, rhs));
    }

    /// The concatenation `{parts[0], parts[1], …}` (most significant
    /// first), stored in this module.
    pub fn concat(&mut self, parts: &[Signal]) -> Signal {
        let start = self.parts.len() as u32;
        self.parts.extend_from_slice(parts);
        Signal::Concat(Concat {
            start,
            len: parts.len() as u32,
        })
    }

    /// Port list, in declaration order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Internal wires, in declaration order.
    pub fn wires(&self) -> &[NetId] {
        &self.wires
    }

    /// Continuous assignments `(lhs, rhs)`.
    pub fn assigns(&self) -> &[(Signal, Signal)] {
        &self.assigns
    }

    /// Generate loops, in the order they were added.
    pub fn loops(&self) -> &[GenerateLoop] {
        &self.loops
    }

    /// Every child module this module instantiates, once per flat
    /// instance and once per loop member, with the number of copies.
    pub(crate) fn child_uses(&self) -> impl Iterator<Item = (ModuleId, u32)> + '_ {
        let flat = self.targets.iter().filter_map(|&t| match t {
            InstanceTarget::Module(child) => Some((child, 1)),
            InstanceTarget::Cell(_) => None,
        });
        let looped = self
            .loops
            .iter()
            .flat_map(|g| g.members.iter().map(move |m| (m.child, g.count)));
        flat.chain(looped)
    }

    /// Name of a net of this module.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a net of this module.
    pub fn net_name(&self, net: NetId) -> &str {
        self.net_names.get(net.0)
    }

    /// Width of a net of this module.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a net of this module.
    pub fn net_width(&self, net: NetId) -> u32 {
        self.net_widths[net.0 as usize]
    }

    /// The parts of a concatenation built by [`concat`](Module::concat).
    ///
    /// # Panics
    ///
    /// Panics if `c` was built by another module and is out of range here.
    pub fn concat_parts(&self, c: Concat) -> &[Signal] {
        &self.parts[c.start as usize..(c.start + c.len) as usize]
    }

    /// Number of connections over all instances.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Every instance's target, in instance order.
    pub fn targets(&self) -> &[InstanceTarget] {
        &self.targets
    }

    /// A view of one instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an instance of this module.
    pub fn instance(&self, id: InstId) -> Instance<'_> {
        let i = id.0 as usize;
        Instance {
            id,
            name: self.inst_names.get(id.0),
            target: self.targets[i],
            connections: &self.conns[self.conn_index(id)..self.conn_ends[i] as usize],
        }
    }

    /// All instances, in insertion order.
    pub fn instances(&self) -> impl ExactSizeIterator<Item = Instance<'_>> {
        (0..self.targets.len() as u32).map(|i| self.instance(InstId(i)))
    }

    /// The width of `signal` in this module.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] of a dangling net, an out-of-range index, a
    /// reversed slice or a foreign concatenation.
    pub fn signal_width(&self, signal: Signal) -> Result<u32, Fault> {
        self.width_within(signal, self.parts.len())
    }

    /// [`signal_width`](Module::signal_width) where a concatenation may
    /// only use parts below `limit`: parts are stored after the parts they
    /// nest, so this bounds the recursion.
    fn width_within(&self, signal: Signal, limit: usize) -> Result<u32, Fault> {
        let net_width = |net: NetId| {
            self.net_widths
                .get(net.0 as usize)
                .copied()
                .ok_or(Fault::UnknownNet(net.0))
        };
        match signal {
            Signal::Net(net) => net_width(net),
            Signal::Bit(net, bit) => {
                let width = net_width(net)?;
                if bit >= width {
                    return Err(self.out_of_range(net, bit, width));
                }
                Ok(1)
            }
            Signal::Slice { net, msb, lsb } => {
                let width = net_width(net)?;
                if msb >= width {
                    return Err(self.out_of_range(net, msb, width));
                }
                if msb < lsb {
                    return Err(Fault::ReversedSlice {
                        net: self.net_name(net).to_owned(),
                        msb,
                        lsb,
                    });
                }
                Ok(msb - lsb + 1)
            }
            Signal::Const { width, .. } => Ok(width),
            Signal::Concat(c) => {
                let (start, end) = (c.start as usize, c.start as usize + c.len as usize);
                if end > limit {
                    return Err(Fault::BadConcat);
                }
                let mut total = 0u32;
                for &part in &self.parts[start..end] {
                    total += self.width_within(part, start)?;
                }
                Ok(total)
            }
        }
    }

    fn out_of_range(&self, net: NetId, index: u32, width: u32) -> Fault {
        Fault::IndexOutOfRange {
            net: self.net_name(net).to_owned(),
            index,
            width,
        }
    }

    fn violation(&self, instance: &str, port: &str, fault: Fault) -> Violation {
        Violation {
            module: self.name.clone(),
            instance: instance.to_owned(),
            port: port.to_owned(),
            fault,
        }
    }

    /// Appends every violation of this module to `out`.
    fn check(&self, design: &Design, out: &mut Vec<Violation>) {
        let mut seen = HashSet::with_capacity(self.net_widths.len());
        for name in self.net_names.iter() {
            if !seen.insert(name) {
                out.push(self.violation("", "", Fault::DuplicateNet(name.to_owned())));
            }
        }
        for inst in self.instances() {
            for (k, &(port, signal)) in inst.connections.iter().enumerate() {
                let Some(expected) = design.port_width(inst.target, port) else {
                    let conn = self.conn_index(inst.id) + k;
                    let name = unresolved_name(&self.unresolved, conn, port);
                    let target = design.target_name(inst.target).to_owned();
                    out.push(self.violation(inst.name, &name, Fault::UnknownPort { target }));
                    continue;
                };
                let fault = match self.signal_width(signal) {
                    Ok(actual) if actual == expected => continue,
                    Ok(actual) => Fault::WidthMismatch { expected, actual },
                    Err(fault) => fault,
                };
                let port_name = design.port_name(inst.target, port).unwrap_or_default();
                out.push(self.violation(inst.name, port_name, fault));
            }
        }
        for (i, &(lhs, rhs)) in self.assigns.iter().enumerate() {
            let fault = match (self.signal_width(lhs), self.signal_width(rhs)) {
                (Ok(expected), Ok(actual)) if expected == actual => continue,
                (Ok(expected), Ok(actual)) => Fault::WidthMismatch { expected, actual },
                (Err(fault), _) | (_, Err(fault)) => fault,
            };
            out.push(self.violation(&format!("assign #{i}"), "", fault));
        }
        if !self.loops.is_empty() {
            let mut names: HashSet<String> = seen.into_iter().map(str::to_owned).collect();
            names.extend(self.inst_names.iter().map(str::to_owned));
            for generate in &self.loops {
                self.check_loop(design, generate, &mut names, out);
            }
        }
    }

    /// Appends the violations of one generate loop to `out`, checking each
    /// member once for all copies. `names` holds the module's net,
    /// instance and earlier loop names; the loop adds its own.
    fn check_loop(
        &self,
        design: &Design,
        generate: &GenerateLoop,
        names: &mut HashSet<String>,
        out: &mut Vec<Violation>,
    ) {
        let block = generate.block.as_str();
        if generate.count == 0 {
            out.push(self.violation(block, "", Fault::EmptyLoop));
        }
        for name in [block.to_owned(), generate.genvar()] {
            if names.contains(&name) {
                out.push(self.violation(block, "", Fault::DuplicateName(name)));
            } else {
                names.insert(name);
            }
        }
        let mut members = HashSet::with_capacity(generate.members.len());
        for member in &generate.members {
            let site = format!("{block}.{}", member.name);
            if !members.insert(member.name.as_str()) {
                out.push(self.violation(&site, "", Fault::DuplicateName(member.name.clone())));
            }
            let target = InstanceTarget::Module(member.child);
            for (k, &(port, wiring)) in member.connections.iter().enumerate() {
                let Some(expected) = design.port_width(target, port) else {
                    let name = unresolved_name(&member.unresolved, k, port);
                    let target = design.target_name(target).to_owned();
                    out.push(self.violation(&site, &name, Fault::UnknownPort { target }));
                    continue;
                };
                let fault = match wiring {
                    LoopSignal::Broadcast(signal) => match self.signal_width(signal) {
                        Ok(actual) if actual == expected => continue,
                        Ok(actual) => Fault::WidthMismatch { expected, actual },
                        Err(fault) => fault,
                    },
                    LoopSignal::Strided { net, base, width } => {
                        match self.strided_fault(net, base, width, generate.count, expected) {
                            Some(fault) => fault,
                            None => continue,
                        }
                    }
                };
                let port_name = design.port_name(target, port).unwrap_or_default();
                out.push(self.violation(&site, port_name, fault));
            }
        }
    }

    /// What is wrong with a strided connection of `count` copies into a
    /// `port_width`-bit port, if anything.
    fn strided_fault(
        &self,
        net: NetId,
        base: u32,
        width: u32,
        count: u32,
        port_width: u32,
    ) -> Option<Fault> {
        let Some(&net_width) = self.net_widths.get(net.0 as usize) else {
            return Some(Fault::UnknownNet(net.0));
        };
        if width != port_width {
            return Some(Fault::WidthMismatch {
                expected: port_width,
                actual: width,
            });
        }
        let end = u64::from(base) + u64::from(count) * u64::from(width);
        (end > u64::from(net_width)).then(|| {
            let last = u32::try_from(end - 1).unwrap_or(u32::MAX);
            self.out_of_range(net, last, net_width)
        })
    }

    /// Index in `conns` of the first connection of `id`.
    fn conn_index(&self, id: InstId) -> usize {
        match id.0 {
            0 => 0,
            i => self.conn_ends[i as usize - 1] as usize,
        }
    }
}

/// A complete hierarchical design: a set of modules and a designated top.
#[derive(Debug, Clone, Default)]
pub struct Design {
    modules: Vec<Module>,
    index: HashMap<String, ModuleId>,
    top: Option<ModuleId>,
    /// The cached result of [`Design::validate`].
    checked: OnceLock<Result<(), NetlistError>>,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Design {
        Design::default()
    }

    /// Adds a module and returns its id.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::DuplicateModule`] on a name collision and
    /// with [`NetlistError::UnknownModule`] if the module instantiates an id
    /// that is not yet in this design.
    pub fn add_module(&mut self, module: Module) -> Result<ModuleId, NetlistError> {
        if self.index.contains_key(&module.name) {
            return Err(NetlistError::DuplicateModule(module.name));
        }
        let id = ModuleId(self.modules.len() as u32);
        if let Some((child, _)) = module.child_uses().find(|&(c, _)| c >= id) {
            return Err(NetlistError::UnknownModule(format!(
                "#{} (instantiated by {})",
                child.0, module.name
            )));
        }
        self.index.insert(module.name.clone(), id);
        self.modules.push(module);
        self.checked = OnceLock::new();
        Ok(id)
    }

    /// The id of the named module.
    pub fn module_id(&self, name: &str) -> Option<ModuleId> {
        self.index.get(name).copied()
    }

    /// All modules, in insertion (dependency) order: a module's children
    /// always precede it.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Sets the top module by name.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::UnknownModule`] if absent.
    pub fn set_top(&mut self, name: impl AsRef<str>) -> Result<(), NetlistError> {
        let name = name.as_ref();
        let id = self
            .module_id(name)
            .ok_or_else(|| NetlistError::UnknownModule(name.to_owned()))?;
        self.set_top_id(id);
        Ok(())
    }

    /// Sets the top module by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a module of this design.
    pub fn set_top_id(&mut self, id: ModuleId) {
        assert!(id.index() < self.modules.len(), "top is not in the design");
        self.top = Some(id);
        self.checked = OnceLock::new();
    }

    /// The top module's id.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::NoTop`] if no top has been set.
    pub fn top_id(&self) -> Result<ModuleId, NetlistError> {
        self.top.ok_or(NetlistError::NoTop)
    }

    /// The top module.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::NoTop`] if no top has been set.
    pub fn top(&self) -> Result<&Module, NetlistError> {
        Ok(&self[self.top_id()?])
    }

    /// Display name of an instance target.
    pub fn target_name(&self, target: InstanceTarget) -> &str {
        match target {
            InstanceTarget::Cell(c) => c.name(),
            InstanceTarget::Module(m) => &self[m].name,
        }
    }

    /// Names port `i` of module `child` (`None` past the last, or for an
    /// id that is not in this design).
    fn module_port_names<'a>(&'a self, child: ModuleId) -> impl Fn(usize) -> Option<&'a str> {
        let module = self.modules.get(child.index());
        move |i| {
            let m = module?;
            Some(m.net_name(m.ports.get(i)?.net))
        }
    }

    /// Name of port `index` of `target`, if it has one.
    pub fn port_name(&self, target: InstanceTarget, index: u32) -> Option<&str> {
        match target {
            InstanceTarget::Cell(c) => cell_ports(c).get(index as usize).map(|p| p.0),
            InstanceTarget::Module(m) => {
                let child = &self[m];
                Some(child.net_name(child.ports.get(index as usize)?.net))
            }
        }
    }

    /// Width of port `index` of `target`, if it has one.
    pub fn port_width(&self, target: InstanceTarget, index: u32) -> Option<u32> {
        match target {
            InstanceTarget::Cell(c) => cell_ports(c).get(index as usize).map(|p| p.1),
            InstanceTarget::Module(m) => {
                let child = &self[m];
                Some(child.net_width(child.ports.get(index as usize)?.net))
            }
        }
    }

    /// The modules reachable from `root`, children before parents, each
    /// after the first use that reaches it.
    pub fn children_first(&self, root: ModuleId) -> Vec<ModuleId> {
        fn visit(design: &Design, id: ModuleId, seen: &mut [bool], order: &mut Vec<ModuleId>) {
            if std::mem::replace(&mut seen[id.index()], true) {
                return;
            }
            for (child, _) in design[id].child_uses() {
                visit(design, child, seen, order);
            }
            order.push(id);
        }
        let mut seen = vec![false; self.modules.len()];
        let mut order = Vec::new();
        visit(self, root, &mut seen, &mut order);
        order
    }

    /// This design with every generate loop expanded into ordinary
    /// instances: copy `i` of member `m` becomes instance `{m}{i}`, placed
    /// after the module's flat instances, copy by copy and member by member
    /// within a copy. A strided connection becomes the copy's slice.
    ///
    /// # Panics
    ///
    /// Debug builds panic on a strided connection of width 0, which does
    /// not validate.
    pub fn flattened(&self) -> Design {
        let mut flat = Design {
            modules: self.modules.clone(),
            index: self.index.clone(),
            top: self.top,
            checked: OnceLock::new(),
        };
        for module in &mut flat.modules {
            module.expand_loops();
        }
        flat
    }

    /// Structurally validates the whole design: a top is set, every
    /// connection names a real port, every signal refers to real nets and
    /// bits, every connected signal's width matches its port, both sides
    /// of every assignment agree, and no module declares a net twice.
    /// Each generate loop is checked once for all its copies: it has at
    /// least one copy, its block and genvar names are new to the module,
    /// its member names are distinct, a broadcast signal's width matches
    /// its port, and a strided connection's width matches its port with
    /// every copy's slice inside the net.
    ///
    /// The check runs once per design; later calls return the kept result
    /// until the design is modified.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoTop`] without a top, otherwise
    /// [`NetlistError::Invalid`] listing every violation.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.checked.get_or_init(|| self.check()).clone()
    }

    fn check(&self) -> Result<(), NetlistError> {
        self.top_id()?;
        let mut violations = Vec::new();
        for module in &self.modules {
            module.check(self, &mut violations);
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(NetlistError::Invalid(violations))
        }
    }
}

impl std::ops::Index<ModuleId> for Design {
    type Output = Module;

    /// # Panics
    ///
    /// Panics if `id` is not a module of this design.
    fn index(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_module() -> (Module, [NetId; 4]) {
        let mut m = Module::new("tiny");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let y = m.add_output("y", 1);
        let t = m.add_wire("t", 2);
        (m, [a, b, y, t])
    }

    fn single(m: Module) -> Design {
        let mut d = Design::new();
        let id = d.add_module(m).unwrap();
        d.set_top_id(id);
        d
    }

    fn violations(d: &Design) -> Vec<Violation> {
        match d.validate() {
            Err(NetlistError::Invalid(v)) => v,
            other => panic!("expected violations, got {other:?}"),
        }
    }

    #[test]
    fn net_widths_are_tracked() {
        let (m, [a, _, _, t]) = tiny_module();
        assert_eq!(m.net_width(a), 4);
        assert_eq!(m.net_width(t), 2);
        assert_eq!(m.net_name(t), "t");
        let ports: Vec<&str> = m.ports().iter().map(|p| m.net_name(p.net)).collect();
        assert_eq!(ports, ["a", "b", "y"]);
        assert_eq!(m.wires(), [t]);
    }

    #[test]
    fn duplicate_net_rejected() {
        let (mut m, _) = tiny_module();
        m.add_wire("a", 1);
        let v = violations(&single(m));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].fault, Fault::DuplicateNet("a".into()));
    }

    #[test]
    fn signal_widths() {
        let (mut m, [a, _, _, t]) = tiny_module();
        assert_eq!(m.signal_width(Signal::Net(a)), Ok(4));
        assert_eq!(m.signal_width(Signal::Bit(a, 3)), Ok(1));
        assert_eq!(m.signal_width(Signal::slice(a, 3, 1)), Ok(3));
        assert_eq!(m.signal_width(Signal::zeros(7)), Ok(7));
        let cat = m.concat(&[Signal::Net(t), Signal::Bit(a, 0)]);
        assert_eq!(m.signal_width(cat), Ok(3));
        let nested = m.concat(&[Signal::zeros(2), cat]);
        assert_eq!(m.signal_width(nested), Ok(5));
    }

    #[test]
    fn signal_out_of_range() {
        let (m, [a, _, _, _]) = tiny_module();
        assert!(matches!(
            m.signal_width(Signal::Bit(a, 4)),
            Err(Fault::IndexOutOfRange {
                index: 4,
                width: 4,
                ..
            })
        ));
        assert_eq!(
            m.signal_width(Signal::Net(NetId(99))),
            Err(Fault::UnknownNet(99))
        );
        assert!(matches!(
            m.signal_width(Signal::Slice {
                net: a,
                msb: 1,
                lsb: 2
            }),
            Err(Fault::ReversedSlice { .. })
        ));
        let mut other = Module::new("other");
        let foreign = other.concat(&[Signal::zeros(1)]);
        assert_eq!(m.signal_width(foreign), Err(Fault::BadConcat));
    }

    #[test]
    fn validate_accepts_correct_cell_wiring() {
        let mut m = Module::new("norbuf");
        let a = m.add_input("a", 1);
        let y = m.add_output("y", 1);
        m.add_cell(
            "u0",
            StandardCell::Nor,
            &[
                ("a", Signal::Net(a)),
                ("b", Signal::Net(a)),
                ("y", Signal::Net(y)),
            ],
        );
        single(m).validate().unwrap();
    }

    #[test]
    fn validate_catches_width_mismatch() {
        let mut m = Module::new("bad");
        let a = m.add_input("a", 2);
        let y = m.add_output("y", 1);
        m.add_cell(
            "u0",
            StandardCell::Nor,
            &[
                ("a", Signal::Net(a)), // 2 bits into a 1-bit port
                ("b", Signal::Bit(a, 0)),
                ("y", Signal::Net(y)),
            ],
        );
        let v = violations(&single(m));
        assert_eq!(
            v[0].fault,
            Fault::WidthMismatch {
                expected: 1,
                actual: 2
            }
        );
        assert_eq!((v[0].instance.as_str(), v[0].port.as_str()), ("u0", "a"));
    }

    #[test]
    fn validate_catches_unknown_port_and_module() {
        let mut m = Module::new("m");
        let y = m.add_output("y", 1);
        m.add_cell("u0", StandardCell::Nor, &[("q", Signal::Net(y))]);
        let v = violations(&single(m));
        assert_eq!((v[0].instance.as_str(), v[0].port.as_str()), ("u0", "q"));
        assert_eq!(
            v[0].fault,
            Fault::UnknownPort {
                target: "NOR".into()
            }
        );

        // A module id from another design cannot be added as a child.
        let mut other = Design::new();
        other.add_module(Module::new("x")).unwrap();
        let foreign = other.add_module(Module::new("y")).unwrap();
        let mut m2 = Module::new("m2");
        m2.add_instance(&other, "c0", foreign, &[]);
        let mut d2 = Design::new();
        assert!(matches!(
            d2.add_module(m2),
            Err(NetlistError::UnknownModule(_))
        ));
    }

    #[test]
    fn validate_reports_every_located_fault() {
        let mut d = Design::new();
        let mut leaf = Module::new("leaf");
        let x = leaf.add_input("x", 4);
        let z = leaf.add_output("z", 1);
        leaf.add_cell(
            "n0",
            StandardCell::Nor,
            &[
                ("a", Signal::Bit(x, 0)),
                ("b", Signal::Bit(x, 1)),
                ("y", Signal::Net(z)),
            ],
        );
        let leaf = d.add_module(leaf).unwrap();

        let mut top = Module::new("top");
        let a = top.add_input("a", 4);
        let y = top.add_output("y", 1);
        // Fault 1: the cell has no port `q`.
        top.add_cell(
            "u_port",
            StandardCell::Nor,
            &[("q", Signal::Bit(a, 0)), ("y", Signal::Net(y))],
        );
        // Fault 2: a 2-bit slice into the child's 4-bit port.
        top.add_instance(
            &d,
            "u_width",
            leaf,
            &[("x", Signal::slice(a, 1, 0)), ("z", Signal::Net(y))],
        );
        // Fault 3: bit 9 of a 4-bit net.
        top.add_cell(
            "u_index",
            StandardCell::Nor,
            &[
                ("a", Signal::Bit(a, 9)),
                ("b", Signal::Bit(a, 0)),
                ("y", Signal::Net(y)),
            ],
        );
        let top = d.add_module(top).unwrap();
        d.set_top_id(top);

        let v = violations(&d);
        assert_eq!(v.len(), 3, "{v:?}");
        let located: Vec<(&str, &str, &str)> = v
            .iter()
            .map(|v| (v.module.as_str(), v.instance.as_str(), v.port.as_str()))
            .collect();
        assert_eq!(
            located,
            [
                ("top", "u_port", "q"),
                ("top", "u_width", "x"),
                ("top", "u_index", "a")
            ]
        );
        assert_eq!(
            v[0].fault,
            Fault::UnknownPort {
                target: "NOR".into()
            }
        );
        assert_eq!(
            v[1].fault,
            Fault::WidthMismatch {
                expected: 4,
                actual: 2
            }
        );
        assert!(matches!(
            v[2].fault,
            Fault::IndexOutOfRange {
                index: 9,
                width: 4,
                ..
            }
        ));

        let message = d.validate().unwrap_err().to_string();
        assert!(
            message.starts_with("netlist has 3 violation(s):"),
            "{message}"
        );
        for site in [
            "instance `u_port`, port `q`",
            "instance `u_width`, port `x`",
            "instance `u_index`, port `a`",
        ] {
            assert!(
                message.contains(&format!("module `top`, {site}")),
                "{message}"
            );
        }
    }

    #[test]
    fn assign_faults_are_located() {
        let (mut m, [a, _, y, _]) = tiny_module();
        m.add_assign(Signal::Net(y), Signal::Net(a));
        let v = violations(&single(m));
        assert_eq!(v[0].instance, "assign #0");
        assert_eq!(
            v[0].fault,
            Fault::WidthMismatch {
                expected: 1,
                actual: 4
            }
        );
    }

    #[test]
    fn validation_is_kept_until_the_design_changes() {
        let (m, _) = tiny_module();
        let mut d = single(m);
        d.validate().unwrap();
        assert!(d.checked.get().is_some());
        d.add_module(Module::new("late")).unwrap();
        assert!(d.checked.get().is_none());
        d.validate().unwrap();
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut d = Design::new();
        d.add_module(Module::new("x")).unwrap();
        assert!(matches!(
            d.add_module(Module::new("x")),
            Err(NetlistError::DuplicateModule(_))
        ));
    }

    #[test]
    fn no_top_is_an_error() {
        let d = Design::new();
        assert!(matches!(d.validate(), Err(NetlistError::NoTop)));
        let mut d = Design::new();
        d.add_module(Module::new("x")).unwrap();
        assert!(matches!(
            d.set_top("ghost"),
            Err(NetlistError::UnknownModule(_))
        ));
    }

    #[test]
    fn children_come_first() {
        let mut d = Design::new();
        let leaf = d.add_module(Module::new("leaf")).unwrap();
        let mut mid = Module::new("mid");
        mid.add_instance(&d, "l0", leaf, &[]);
        let mid = d.add_module(mid).unwrap();
        let mut top = Module::new("top");
        top.add_instance(&d, "m0", mid, &[]);
        top.add_instance(&d, "l1", leaf, &[]);
        let top = d.add_module(top).unwrap();
        d.add_module(Module::new("unused")).unwrap();
        assert_eq!(d.children_first(top), [leaf, mid, top]);
    }

    /// A design holding `leaf(x[3:0] -> z)`, and its id.
    fn with_leaf() -> (Design, ModuleId) {
        let mut d = Design::new();
        let mut leaf = Module::new("leaf");
        let x = leaf.add_input("x", 4);
        let z = leaf.add_output("z", 1);
        leaf.add_cell(
            "n0",
            StandardCell::Nor,
            &[
                ("a", Signal::Bit(x, 0)),
                ("b", Signal::Bit(x, 1)),
                ("y", Signal::Net(z)),
            ],
        );
        let id = d.add_module(leaf).unwrap();
        (d, id)
    }

    #[test]
    fn loop_validates_and_flattens_copy_by_copy() {
        let (mut d, leaf) = with_leaf();
        let mut top = Module::new("top");
        let a = top.add_input("a", 14);
        let y = top.add_output("y", 3);
        let mut rows = GenerateLoop::new("rows", 3);
        rows.add_member(
            &d,
            "u",
            leaf,
            &[
                (
                    "x",
                    LoopSignal::Strided {
                        net: a,
                        base: 2,
                        width: 4,
                    },
                ),
                (
                    "z",
                    LoopSignal::Strided {
                        net: y,
                        base: 0,
                        width: 1,
                    },
                ),
            ],
        )
        .add_member(
            &d,
            "v",
            leaf,
            &[
                ("x", LoopSignal::Broadcast(Signal::slice(a, 3, 0))),
                ("q", LoopSignal::Broadcast(Signal::Bit(y, 0))),
            ],
        );
        top.add_loop(rows);
        let top = d.add_module(top).unwrap();
        d.set_top_id(top);

        // Only the unknown port `q` is at fault, once for all three copies.
        let v = violations(&d);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            (v[0].instance.as_str(), v[0].port.as_str()),
            ("rows.v", "q")
        );

        let flat = d.flattened();
        assert!(flat[top].loops().is_empty());
        let names: Vec<&str> = flat[top].instances().map(|i| i.name).collect();
        assert_eq!(names, ["u0", "v0", "u1", "v1", "u2", "v2"]);
        let u2 = flat[top].instances().nth(4).unwrap();
        assert_eq!(
            u2.connections,
            [(0, Signal::slice(a, 13, 10)), (1, Signal::slice(y, 2, 2))]
        );
        // The flat form keeps the unresolved name at its new position.
        let flat_v = violations(&flat);
        assert_eq!(flat_v.len(), 3);
        assert!(flat_v
            .iter()
            .all(|v| v.port == "q" && v.instance.starts_with('v')));
        assert_eq!(d.children_first(top), [leaf, top]);
    }

    #[test]
    fn validate_reports_every_located_loop_fault() {
        let (mut d, leaf) = with_leaf();
        let mut top = Module::new("top");
        let a = top.add_input("a", 12);
        let y = top.add_output("y", 3);
        top.add_cell(
            "u0",
            StandardCell::Nor,
            &[
                ("a", Signal::Bit(a, 0)),
                ("b", Signal::Bit(a, 1)),
                ("y", Signal::Bit(y, 0)),
            ],
        );
        let mut rows = GenerateLoop::new("rows", 3);
        rows.add_member(
            &d,
            "u",
            leaf,
            // Fault 1: copy 2 reaches a[15] of a 12-bit net.
            &[
                (
                    "x",
                    LoopSignal::Strided {
                        net: a,
                        base: 4,
                        width: 4,
                    },
                ),
                (
                    "z",
                    LoopSignal::Strided {
                        net: y,
                        base: 0,
                        width: 1,
                    },
                ),
            ],
        )
        // Fault 2: a second member `u`.
        .add_member(
            &d,
            "u",
            leaf,
            &[
                // Fault 3: a 2-bit stride into the 4-bit port.
                (
                    "x",
                    LoopSignal::Strided {
                        net: a,
                        base: 0,
                        width: 2,
                    },
                ),
                // Fault 4: the 3-bit bus broadcast into the 1-bit port.
                ("z", LoopSignal::Broadcast(Signal::Net(y))),
            ],
        );
        top.add_loop(rows);
        // Faults 5 and 6: no copies, and a block named like the net `a`.
        top.add_loop(GenerateLoop::new("a", 0));
        // Fault 7: a block named like the flat instance `u0`.
        top.add_loop(GenerateLoop::new("u0", 1));
        // Fault 8: the genvar `rows_i` of a second `rows` block, and
        // fault 9 the block name itself.
        top.add_loop(GenerateLoop::new("rows", 1));
        let top = d.add_module(top).unwrap();
        d.set_top_id(top);

        let v = violations(&d);
        let located: Vec<(&str, &str, &Fault)> = v
            .iter()
            .map(|v| (v.instance.as_str(), v.port.as_str(), &v.fault))
            .collect();
        let out_of_range = Fault::IndexOutOfRange {
            net: "a".into(),
            index: 15,
            width: 12,
        };
        let narrow = Fault::WidthMismatch {
            expected: 4,
            actual: 2,
        };
        let wide = Fault::WidthMismatch {
            expected: 1,
            actual: 3,
        };
        let dup = |name: &str| Fault::DuplicateName(name.into());
        assert_eq!(
            located,
            [
                ("rows.u", "x", &out_of_range),
                ("rows.u", "", &dup("u")),
                ("rows.u", "x", &narrow),
                ("rows.u", "z", &wide),
                ("a", "", &Fault::EmptyLoop),
                ("a", "", &dup("a")),
                ("u0", "", &dup("u0")),
                ("rows", "", &dup("rows")),
                ("rows", "", &dup("rows_i")),
            ]
        );
        assert!(v.iter().all(|v| v.module == "top"));

        let message = d.validate().unwrap_err().to_string();
        assert!(
            message.starts_with("netlist has 9 violation(s):"),
            "{message}"
        );
        assert!(
            message.contains(
                "module `top`, instance `rows.u`, port `x`: index 15 out of range for net `a` of width 12"
            ),
            "{message}"
        );
        assert!(message.contains("instance `a`: generate loop has a count of 0"));
        assert!(message.contains("instance `u0`: name `u0` is declared twice"));
    }

    #[test]
    fn loop_children_must_already_be_in_the_design() {
        let (d, _) = with_leaf();
        let mut other = d.clone();
        let late = other.add_module(Module::new("late")).unwrap();
        let mut top = Module::new("top");
        let mut rows = GenerateLoop::new("rows", 2);
        rows.add_member(&other, "l", late, &[]);
        top.add_loop(rows);
        let mut d = d;
        assert!(matches!(
            d.add_module(top),
            Err(NetlistError::UnknownModule(_))
        ));
    }

    #[test]
    fn error_messages_are_nonempty() {
        let errs = [
            NetlistError::DuplicateModule("m".into()),
            NetlistError::NoTop,
            NetlistError::UnknownModule("m".into()),
            NetlistError::DesignPoint(ParamError::ZeroDimension("n")),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
