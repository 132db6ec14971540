//! IPv4-style addressing and CIDR prefixes.

use std::fmt;
use std::str::FromStr;

/// A 32-bit network address (IPv4-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    pub const UNSPECIFIED: Addr = Addr(0);

    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(u32::from_be_bytes([a, b, c, d]))
    }

    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Deterministic site addressing used by topology builders:
    /// `10.<site>.0.<host>`.
    pub fn site_host(site: u16, host: u8) -> Self {
        Addr::new(10, (site >> 8) as u8, site as u8, host)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Addr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(format!("bad address {s:?}"));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| format!("bad octet {p:?}"))?;
        }
        Ok(Addr(u32::from_be_bytes(octets)))
    }
}

/// A CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Build a prefix; host bits beyond `len` are masked off.
    pub fn new(addr: Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} exceeds 32");
        Prefix {
            addr: addr.0 & Self::mask(len),
            len,
        }
    }

    /// The default route `0.0.0.0/0`.
    pub fn default_route() -> Self {
        Prefix::new(Addr::UNSPECIFIED, 0)
    }

    /// A host route `/32`.
    pub fn host(addr: Addr) -> Self {
        Prefix::new(addr, 32)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length (default) prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn network(&self) -> Addr {
        Addr(self.addr)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 & Self::mask(self.len) == self.addr
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Addr(self.addr), self.len)
    }
}

impl FromStr for Prefix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| format!("bad prefix {s:?}"))?;
        let addr: Addr = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| format!("bad length {len:?}"))?;
        if len > 32 {
            return Err(format!("prefix length {len} exceeds 32"));
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let a = Addr::new(10, 1, 2, 3);
        assert_eq!(a.to_string(), "10.1.2.3");
        assert_eq!("10.1.2.3".parse::<Addr>().unwrap(), a);
        assert!("10.1.2".parse::<Addr>().is_err());
        assert!("10.1.2.256".parse::<Addr>().is_err());
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains(Addr::new(10, 1, 200, 7)));
        assert!(!p.contains(Addr::new(10, 2, 0, 1)));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn default_route_contains_everything() {
        let p = Prefix::default_route();
        assert!(p.contains(Addr::new(0, 0, 0, 0)));
        assert!(p.contains(Addr::new(255, 255, 255, 255)));
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn host_route_contains_only_itself() {
        let a = Addr::new(10, 0, 0, 1);
        let p = Prefix::host(a);
        assert!(p.contains(a));
        assert!(!p.contains(Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn host_bits_are_masked() {
        let p = Prefix::new(Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.network(), Addr::new(10, 1, 0, 0));
    }

    #[test]
    fn site_host_layout() {
        let a = Addr::site_host(3, 7);
        assert_eq!(a.to_string(), "10.0.3.7");
        let b = Addr::site_host(300, 1);
        assert_eq!(b.octets(), [10, 1, 44, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds 32")]
    fn oversized_prefix_panics() {
        Prefix::new(Addr::UNSPECIFIED, 33);
    }

    #[test]
    fn parse_prefix_errors() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0/8".parse::<Prefix>().is_err());
    }
}
