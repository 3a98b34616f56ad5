//! Thin std-only epoll wrapper over raw Linux syscalls.
//!
//! The event loop needs exactly three kernel entry points beyond what
//! `std` already exposes — `epoll_create1`, `epoll_ctl`, and
//! `epoll_pwait` — and the container is offline, so instead of pulling
//! in `libc`/`mio` they are issued directly with `core::arch::asm!`
//! (x86-64 and aarch64). Everything else (nonblocking sockets, fd
//! ownership and close-on-drop, the wake pipe) comes from `std`:
//! sockets flip nonblocking via [`std::net::TcpStream::set_nonblocking`],
//! the epoll fd lives in an [`OwnedFd`] so it closes on drop, and the
//! cross-thread wakeup is a nonblocking [`UnixStream`] pair registered
//! like any other fd.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (`EPOLLHUP`); always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (`EPOLLRDHUP`) — how a half-open
/// disconnect shows up without a read returning 0.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: usize = 0o2000000;
const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_MOD: usize = 3;

/// One readiness notification: the event mask and the registrant's
/// token. Layout matches the kernel's `struct epoll_event`, which is
/// packed on x86-64 and naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The ready-event mask.
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The token passed at registration.
    pub fn token(&self) -> u64 {
        self.data
    }
}

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
}

/// `syscall(n, a, b, c, d, e, f)` returning the raw kernel result
/// (negative errno on failure).
///
/// # Safety
/// The caller must uphold the invariants of the specific syscall —
/// valid pointers/lengths for the kernel to read or write.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// See the x86-64 variant; aarch64 passes arguments in `x0..x5` with the
/// syscall number in `x8`.
///
/// # Safety
/// Same contract as the x86-64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            in("x8") n,
            options(nostack),
        );
    }
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// An epoll instance. Dropping it closes the kernel object.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Epoll> {
        let raw = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just handed us exclusive ownership of `raw`.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(raw as RawFd) },
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                std::ptr::from_ref(&ev) as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` for `events`, tagging notifications with `token`.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest mask of a registered fd.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Blocks until readiness (or `timeout_ms`; `-1` waits forever) and
    /// fills `events`, returning how many fired. Retries on `EINTR`.
    ///
    /// # Errors
    /// Propagates `epoll_pwait` failure.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd.as_raw_fd() as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // no signal mask
                    8, // sigsetsize (kernel checks it even for NULL)
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A cross-thread wakeup channel for an epoll loop: the reader half is
/// registered in the loop, any thread holding the writer pokes it awake
/// with a one-byte write.
pub struct WakePipe {
    reader: UnixStream,
    writer: UnixStream,
}

impl WakePipe {
    /// A nonblocking socket pair.
    ///
    /// # Errors
    /// Propagates `socketpair` failure.
    pub fn new() -> io::Result<WakePipe> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(WakePipe { reader, writer })
    }

    /// The fd to register for [`EPOLLIN`].
    pub fn reader_fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// A handle other threads use to wake the loop.
    pub fn waker(&self) -> Waker {
        Waker {
            writer: self.writer.try_clone().expect("clone wake writer"),
        }
    }

    /// Discards pending wake bytes so the next poke is level-triggered
    /// visible again.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.reader).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

/// The writing half of a [`WakePipe`].
pub struct Waker {
    writer: UnixStream,
}

impl Waker {
    /// Pokes the owning loop awake. A full pipe means a wake is already
    /// pending, which is just as good.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.writer).write(&[1]);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            writer: self.writer.try_clone().expect("clone wake writer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn socket_readiness_round_trip() {
        let epoll = Epoll::new().unwrap();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        epoll.add(b.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing to read yet: a zero-timeout wait returns no events.
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].events() & EPOLLIN != 0);

        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn modify_changes_interest() {
        let epoll = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        epoll.add(b.as_raw_fd(), EPOLLIN, 1).unwrap();
        a.write_all(b"x").unwrap();

        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);

        // EPOLLOUT on an idle writable socket fires immediately.
        epoll.modify(b.as_raw_fd(), EPOLLOUT, 2).unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token(), 2);
        assert!(events[0].events() & EPOLLOUT != 0);
    }

    #[test]
    fn wake_pipe_rouses_a_waiting_loop() {
        let epoll = Epoll::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        epoll.add(pipe.reader_fd(), EPOLLIN, u64::MAX).unwrap();
        let waker = pipe.waker();

        let poker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waker.wake();
        });
        let mut events = [EpollEvent::default(); 4];
        let n = epoll.wait(&mut events, 5000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), u64::MAX);
        pipe.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        poker.join().unwrap();
    }
}
